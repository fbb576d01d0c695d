// Overload-protection scenarios: bounded queues with the three shedding
// policies, deadline-expiry drops, the runtime admission gate, scripted rate
// bursts, and the rich controller plumbing. Every scenario asserts the
// whole-run conservation identity
//   arrived == completed_all + failed_all + shed_all + in_flight_end
// — overload may refuse or drop tasks, never lose them.

#include <gtest/gtest.h>

#include <cmath>

#include "core/objective.hpp"
#include "edge/builders.hpp"
#include "profile/compute_profile.hpp"
#include "profile/energy_model.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

ClusterTopology single_device(double rate, double deadline = 0.0,
                              double bandwidth = mbps(100.0)) {
  ClusterTopology t;
  const CellId cell = t.add_cell(Cell{-1, "c", bandwidth, ms(1.0)});
  Device d;
  d.name = "dev";
  d.compute = profiles::smartphone();
  d.energy = profiles::energy_phone();
  d.cell = cell;
  d.model = "tiny_cnn";
  d.arrival_rate = rate;
  d.deadline = deadline;
  t.add_device(d);
  EdgeServer s;
  s.name = "srv";
  s.compute = profiles::edge_gpu_t4();
  s.backhaul_rtt = ms(0.5);
  t.add_server(s);
  return t;
}

Decision local_decision(const ProblemInstance& instance) {
  Decision d;
  d.scheme = "test_local";
  d.per_device.resize(instance.topology().devices().size());
  for (auto& dd : d.per_device) dd.plan.device_only = true;
  evaluate_decision(instance, d);
  return d;
}

Decision offload_decision(const ProblemInstance& instance, double share,
                          double bw) {
  Decision d;
  d.scheme = "test_offload";
  d.per_device.resize(instance.topology().devices().size());
  for (auto& dd : d.per_device) {
    dd.plan.partition_after = 0;
    dd.server = 0;
    dd.compute_share = share;
    dd.bandwidth = bw;
  }
  evaluate_decision(instance, d);
  return d;
}

Simulator::Options fast_run(double horizon = 60.0, std::uint64_t seed = 11) {
  Simulator::Options o;
  o.horizon = horizon;
  o.warmup = horizon * 0.1;
  o.seed = seed;
  return o;
}

void expect_conserved(const SimMetrics& m) {
  EXPECT_EQ(m.arrived,
            m.completed_all + m.failed_all + m.shed_all + m.in_flight_end);
}

TEST(Overload, DefaultOptionsMatchUnboundedBehavior) {
  const ProblemInstance inst(single_device(30.0));
  const auto d = offload_decision(inst, 0.5, mbps(40.0));
  Simulator base(inst, d, fast_run());
  auto bounded_opts = fast_run();
  bounded_opts.overload = OverloadOptions{};  // all limits zero
  Simulator bounded(inst, d, bounded_opts);
  const auto ma = base.run();
  const auto mb = bounded.run();
  EXPECT_EQ(ma.arrived, mb.arrived);
  EXPECT_EQ(ma.completed, mb.completed);
  EXPECT_DOUBLE_EQ(ma.latency.mean(), mb.latency.mean());
  EXPECT_EQ(mb.shed_all, 0u);
  expect_conserved(mb);
}

TEST(Overload, BoundedDeviceQueueSheds) {
  // Offered load far beyond the device's service capacity: without a bound
  // the backlog grows without limit; with one, the excess is shed and the
  // survivors' latency stays bounded by the queue length.
  const ProblemInstance inst(single_device(3000.0));
  const auto d = local_decision(inst);
  auto opts = fast_run();
  opts.overload.device_queue_limit = 8;
  Simulator sim(inst, d, opts);
  const auto m = sim.run();
  EXPECT_GT(m.shed, 0u);
  EXPECT_GT(m.completed, 0u);
  expect_conserved(m);

  Simulator unbounded(inst, d, fast_run());
  const auto mu = unbounded.run();
  EXPECT_LT(m.latency.p99(), mu.latency.p99());
}

TEST(Overload, ConservationAcrossPoliciesAndFaults) {
  const ProblemInstance inst(single_device(120.0, 0.25, mbps(20.0)));
  const auto d = offload_decision(inst, 0.3, mbps(8.0));
  for (const auto policy : {OverloadPolicy::Block, OverloadPolicy::ShedNewest,
                            OverloadPolicy::ShedExpired}) {
    for (const auto fp : {FaultPolicy::Drop, FaultPolicy::RetryOnDevice,
                          FaultPolicy::RetryOffload}) {
      auto opts = fast_run(80.0);
      opts.overload.policy = policy;
      opts.overload.device_queue_limit = 16;
      opts.overload.upload_queue_limit = 4;
      opts.overload.server_queue_limit = 4;
      opts.faults.policy = fp;
      opts.faults.schedule = FaultSchedule::server_crash(0, 20.0, 30.0);
      Simulator sim(inst, d, opts);
      const auto m = sim.run();
      expect_conserved(m);
      EXPECT_GT(m.completed, 0u);
      EXPECT_GT(m.shed_all, 0u);
    }
  }
}

TEST(Overload, ShedExpiredDropsProvablyLateTasks) {
  // Tight deadline + heavy backlog: once the committed device backlog alone
  // overruns the deadline, ShedExpired refuses tasks at the door instead of
  // executing work that is already provably late.
  const ProblemInstance inst(single_device(3000.0, 0.01));
  const auto d = local_decision(inst);
  auto opts = fast_run();
  opts.overload.policy = OverloadPolicy::ShedExpired;
  Simulator sim(inst, d, opts);
  const auto m = sim.run();
  EXPECT_GT(m.expired, 0u);
  EXPECT_GT(m.completed, 0u);
  expect_conserved(m);

  // Expiry shedding only ever drops tasks that could not have met the
  // deadline, so satisfaction cannot be worse than letting them run.
  Simulator plain(inst, d, fast_run());
  const auto mp = plain.run();
  EXPECT_GE(m.deadline_satisfaction, mp.deadline_satisfaction);
}

TEST(Overload, ShedTasksCountAsDeadlineMisses) {
  const ProblemInstance inst(single_device(3000.0, 0.01));
  const auto d = local_decision(inst);
  auto opts = fast_run();
  opts.overload.policy = OverloadPolicy::ShedNewest;
  opts.overload.device_queue_limit = 6;
  Simulator sim(inst, d, opts);
  const auto m = sim.run();
  EXPECT_GT(m.shed, 0u);
  const auto& dm = m.per_device[0];
  // Every settled post-warmup task of a deadline-bearing device enters the
  // satisfaction denominator — shed and expired included.
  EXPECT_EQ(dm.deadline_total,
            dm.completed + dm.failed + dm.shed + dm.expired);
  EXPECT_LT(m.deadline_satisfaction, 1.0);
  expect_conserved(m);
}

TEST(Overload, AdmissionGatePreservesArrivalStream) {
  const ProblemInstance inst(single_device(50.0));
  const auto d = local_decision(inst);
  Simulator open(inst, d, fast_run(100.0, 21));
  const auto mo = open.run();

  Simulator gated(inst, d, fast_run(100.0, 21));
  gated.set_admission({0.5});
  const auto mg = gated.run();

  // The gate draws from its own RNG substream, so the arrival process (and
  // everything downstream of admitted tasks) is bit-identical.
  EXPECT_EQ(mo.arrived, mg.arrived);
  EXPECT_GT(mg.shed_all, 0u);
  EXPECT_LT(mg.completed, mo.completed);
  expect_conserved(mg);

  // Roughly half the traffic should be admitted.
  const double admitted = static_cast<double>(mg.completed_all) /
                          static_cast<double>(mg.arrived);
  EXPECT_NEAR(admitted, 0.5, 0.1);
}

TEST(Overload, AdmissionGateValidates) {
  const ProblemInstance inst(single_device(5.0));
  Simulator sim(inst, local_decision(inst), fast_run());
  EXPECT_THROW(sim.set_admission({0.5, 0.5}), ContractViolation);
  EXPECT_THROW(sim.set_admission({1.5}), ContractViolation);
  sim.set_admission({1.0});
  sim.set_admission({});  // clears
}

TEST(Overload, RateBurstScalesOfferedLoad) {
  const ProblemInstance inst(single_device(10.0));
  const auto d = local_decision(inst);
  Simulator plain(inst, d, fast_run(100.0, 33));
  const auto mp = plain.run();

  auto opts = fast_run(100.0, 33);
  opts.rate_bursts.push_back(RateBurst{20.0, 60.0, 3.0});
  Simulator burst(inst, d, opts);
  const auto mb = burst.run();
  EXPECT_GT(mb.arrived, mp.arrived + mp.arrived / 4);
  expect_conserved(mb);

  // Scripted bursts are deterministic for a seed.
  Simulator again(inst, d, opts);
  EXPECT_EQ(again.run().arrived, mb.arrived);
}

TEST(Overload, RateBurstValidates) {
  const ProblemInstance inst(single_device(5.0));
  auto opts = fast_run();
  opts.rate_bursts.push_back(RateBurst{10.0, 5.0, 2.0});  // end < start
  EXPECT_THROW(Simulator(inst, local_decision(inst), opts), ContractViolation);
  opts.rate_bursts = {RateBurst{0.0, 10.0, 0.0}};  // factor must be positive
  EXPECT_THROW(Simulator(inst, local_decision(inst), opts), ContractViolation);
}

TEST(Overload, RichControllerSeesLoadAndDrivesGate) {
  const ProblemInstance inst(single_device(3000.0));
  const auto d = local_decision(inst);
  auto opts = fast_run(60.0);
  opts.control_interval = 2.0;
  Simulator sim(inst, d, opts);
  std::size_t ticks = 0;
  double max_offered = 0.0;
  double max_depth = 0.0;
  sim.set_controller([&](const Observation& o) {
    ++ticks;
    EXPECT_EQ(o.offered_rate.size(), 1u);
    EXPECT_EQ(o.queue_depth.size(), 1u);
    max_offered = std::max(max_offered, o.offered_rate[0]);
    max_depth = std::max(max_depth, o.queue_depth[0]);
    ControlAction action;
    action.admit_fraction = std::vector<double>{0.1};
    return action;
  });
  const auto m = sim.run();
  EXPECT_GT(ticks, 10u);
  // Offered-rate estimate should be near the true 200/s; the queue was deep
  // before the gate engaged.
  EXPECT_GT(max_offered, 100.0);
  EXPECT_GT(max_depth, 10.0);
  EXPECT_GT(m.shed_all, 0u);
  expect_conserved(m);
}

TEST(Overload, BoundedUploadAndServerQueuesShed) {
  // Starve the uplink and the server slice so the offload-side queues (not
  // the device stage) are the bottleneck.
  const ProblemInstance inst(single_device(60.0, 0.0, mbps(4.0)));
  const auto d = offload_decision(inst, 0.05, mbps(2.0));
  for (const auto policy :
       {OverloadPolicy::Block, OverloadPolicy::ShedNewest}) {
    auto opts = fast_run(80.0);
    opts.overload.policy = policy;
    opts.overload.upload_queue_limit = 3;
    opts.overload.server_queue_limit = 3;
    Simulator sim(inst, d, opts);
    const auto m = sim.run();
    EXPECT_GT(m.shed, 0u) << "policy " << static_cast<int>(policy);
    EXPECT_GT(m.completed, 0u);
    expect_conserved(m);
  }
}

}  // namespace
}  // namespace scalpel
