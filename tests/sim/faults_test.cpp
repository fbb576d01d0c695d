// Deterministic crash-script scenarios for the fault-injection subsystem:
// tasks caught mid-pipeline by a crash, crash during upload vs server
// compute, recovery mid-queue, and the all-servers-dead device-only
// degradation. Every scenario asserts the whole-run conservation invariant
//   arrived == completed_all + failed_all + in_flight_end
// — the simulator may fail or resteer tasks, never lose them.

#include <gtest/gtest.h>

#include <cmath>

#include "core/objective.hpp"
#include "core/online.hpp"
#include "edge/builders.hpp"
#include "profile/compute_profile.hpp"
#include "profile/energy_model.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

/// One device / one server / one cell topology with controllable rate.
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

void expect_conservation(const SimMetrics& m) {
  EXPECT_EQ(m.arrived, m.completed_all + m.failed_all + m.in_flight_end)
      << "arrived=" << m.arrived << " completed_all=" << m.completed_all
      << " failed_all=" << m.failed_all
      << " in_flight_end=" << m.in_flight_end;
}

Simulator::Options fault_run(double horizon, std::uint64_t seed,
                             FaultSchedule schedule, FaultPolicy policy) {
  Simulator::Options o;
  o.horizon = horizon;
  o.warmup = 1.0;
  o.seed = seed;
  o.faults.schedule = std::move(schedule);
  o.faults.policy = policy;
  return o;
}

TEST(Faults, DropPolicyFailsTasksCaughtByCrash) {
  // Steady offloaded stream; the server dies mid-run and never recovers.
  auto topo = single_device(4.0);
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  const auto m =
      Simulator(inst, d,
                fault_run(60.0, 3,
                          FaultSchedule::server_crash(
                              0, 30.0, std::numeric_limits<double>::infinity()),
                          FaultPolicy::Drop))
          .run();
  EXPECT_GT(m.completed, 0u);       // the pre-crash half of the run
  EXPECT_GT(m.failed, 10u);         // everything offloaded after the crash
  EXPECT_EQ(m.retried, 0u);
  EXPECT_EQ(m.resteered, 0u);
  EXPECT_NEAR(m.availability, 0.5, 1e-12);
  expect_conservation(m);
}

TEST(Faults, RetryOnDeviceResteersAndLosesNothing) {
  auto topo = single_device(4.0);
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  const auto m =
      Simulator(inst, d,
                fault_run(60.0, 3,
                          FaultSchedule::server_crash(
                              0, 30.0, std::numeric_limits<double>::infinity()),
                          FaultPolicy::RetryOnDevice))
          .run();
  EXPECT_EQ(m.failed, 0u);
  EXPECT_GT(m.resteered, 10u);  // post-crash stream re-executed on-device
  EXPECT_GT(m.completed, 50u);
  // Resteered completions land in the outage latency tail.
  EXPECT_GE(m.outage_latency.count(), m.resteered);
  EXPECT_GT(m.outage_latency.p99(), 0.0);
  expect_conservation(m);
}

TEST(Faults, CrashDuringUploadVsServerCompute) {
  // Slow uplink: tasks spend real time uploading, so a crash catches some
  // mid-upload (caught at start_server_phase) and some mid-service (caught
  // by the fluid clear). Both populations must be resteered, not lost.
  auto topo = single_device(2.0, 0.0, mbps(6.0));
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  const auto m =
      Simulator(inst, d,
                fault_run(40.0, 7,
                          FaultSchedule::server_crash(
                              0, 20.0, std::numeric_limits<double>::infinity()),
                          FaultPolicy::RetryOnDevice))
          .run();
  EXPECT_EQ(m.failed, 0u);
  EXPECT_GT(m.resteered, 0u);
  expect_conservation(m);
}

TEST(Faults, LinkOutageSeversUploadsInFlight) {
  auto topo = single_device(3.0, 0.0, mbps(8.0));
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  const auto m = Simulator(inst, d,
                           fault_run(40.0, 11,
                                     FaultSchedule::link_outage(0, 15.0, 25.0),
                                     FaultPolicy::RetryOnDevice))
                     .run();
  EXPECT_EQ(m.failed, 0u);
  EXPECT_GT(m.resteered, 0u);
  // Link faults don't count against server availability.
  EXPECT_DOUBLE_EQ(m.availability, 1.0);
  expect_conservation(m);
}

TEST(Faults, RecoveryMidQueueDrainsRetries) {
  // Server down for a 10 s window; RetryOffload with a generous budget must
  // carry every interrupted task across the outage: zero failures, and the
  // offloaded stream resumes after recovery.
  auto topo = single_device(2.0);
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  auto opts = fault_run(80.0, 13, FaultSchedule::server_crash(0, 30.0, 40.0),
                        FaultPolicy::RetryOffload);
  opts.faults.max_retries = 100;
  opts.faults.retry_backoff = 0.5;
  opts.faults.retry_timeout = 60.0;
  const auto m = Simulator(inst, d, opts).run();
  EXPECT_EQ(m.failed, 0u);
  EXPECT_GT(m.retried, 0u);
  EXPECT_GT(m.completed, 100u);
  // Every arrival eventually completed (or was still in flight at horizon).
  expect_conservation(m);
  EXPECT_NEAR(m.availability, 1.0 - 10.0 / 80.0, 1e-12);
}

TEST(Faults, RetryBudgetExhaustionFailsTasks) {
  // Permanent crash + small retry budget: every post-crash offloaded task
  // burns its retries against the dead server and is dropped.
  auto topo = single_device(3.0);
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  auto opts = fault_run(40.0, 17,
                        FaultSchedule::server_crash(
                            0, 20.0, std::numeric_limits<double>::infinity()),
                        FaultPolicy::RetryOffload);
  opts.faults.max_retries = 2;
  opts.faults.retry_backoff = 0.2;
  opts.faults.retry_timeout = 5.0;
  const auto m = Simulator(inst, d, opts).run();
  EXPECT_GT(m.failed, 0u);
  EXPECT_GT(m.retried, 0u);
  expect_conservation(m);
}

TEST(Faults, AllServersDeadDegradesToDeviceOnlyViaController) {
  // small_lab has two servers; both die at t=20 and stay dead. The online
  // controller observes the liveness collapse and swaps in a device-only
  // decision — tasks keep completing, nothing crashes, nothing leaks.
  const auto topo = clusters::small_lab();
  const ProblemInstance inst(topo);
  OnlineController::Options copts;
  copts.joint.max_iterations = 2;
  copts.joint.dp_coverage_bins = 40;
  copts.joint.theta_grid = {0.0, 0.3, 0.6};
  OnlineController controller(topo, copts);
  const Decision initial = controller.decision();

  Simulator::Options opts;
  opts.horizon = 60.0;
  opts.warmup = 1.0;
  opts.seed = 19;
  opts.control_interval = 2.0;
  opts.faults.policy = FaultPolicy::RetryOffload;
  opts.faults.max_retries = 50;
  opts.faults.retry_backoff = 0.5;
  opts.faults.retry_timeout = 30.0;
  opts.faults.schedule =
      FaultSchedule::server_crash(0, 20.0,
                                  std::numeric_limits<double>::infinity())
          .merged(FaultSchedule::server_crash(
              1, 20.0, std::numeric_limits<double>::infinity()));
  Simulator sim(inst, initial, opts);
  sim.set_controller([tick = controller.callback()](Observation o) {
    o.offered_rate.clear();  // liveness and bandwidth only: no load signals
    o.queue_depth.clear();
    return tick(o);
  });
  const auto m = sim.run();
  EXPECT_GE(controller.failovers(), 1u);
  // The controller's post-crash plan is device-only for every device.
  for (const auto& dd : controller.decision().per_device) {
    EXPECT_TRUE(dd.plan.device_only);
  }
  EXPECT_GT(m.completed, 100u);  // service continued through the blackout
  EXPECT_EQ(m.failed, 0u);       // retries bridged into the device fallback
  expect_conservation(m);
}

TEST(Faults, ZeroDurationOutageIsHarmless) {
  auto topo = single_device(4.0);
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  const auto down_up = FaultSchedule({{20.0, FaultTarget::Server, 0, false},
                                      {20.0, FaultTarget::Server, 0, true}});
  const auto m = Simulator(inst, d,
                           fault_run(60.0, 23, down_up,
                                     FaultPolicy::RetryOnDevice))
          .run();
  // Tasks in flight at the instant are resteered; everything else proceeds.
  EXPECT_EQ(m.failed, 0u);
  EXPECT_NEAR(m.availability, 1.0, 1e-12);
  expect_conservation(m);
}

TEST(Faults, CrashAtTimeZeroNeverOffloads) {
  auto topo = single_device(3.0);
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  const auto m =
      Simulator(inst, d,
                fault_run(30.0, 29,
                          FaultSchedule::server_crash(
                              0, 0.0, std::numeric_limits<double>::infinity()),
                          FaultPolicy::RetryOnDevice))
          .run();
  EXPECT_EQ(m.failed, 0u);
  EXPECT_GT(m.completed, 50u);
  EXPECT_DOUBLE_EQ(m.offload_fraction, 0.0);  // nothing ever reached a server
  EXPECT_NEAR(m.availability, 0.0, 1e-12);
  expect_conservation(m);
}

TEST(Faults, DroppedDeadlineTasksCountAsMisses) {
  // Loose deadline: every completion meets it, so deadline satisfaction is
  // exactly the completed fraction under the Drop policy.
  auto topo = single_device(3.0, 5.0);
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  const auto m =
      Simulator(inst, d,
                fault_run(60.0, 31,
                          FaultSchedule::server_crash(
                              0, 30.0, std::numeric_limits<double>::infinity()),
                          FaultPolicy::Drop))
          .run();
  ASSERT_GT(m.failed, 0u);
  const auto& dm = m.per_device[0];
  EXPECT_EQ(dm.deadline_total, dm.completed + dm.failed);
  EXPECT_LT(m.deadline_satisfaction, 1.0);
  EXPECT_NEAR(m.deadline_satisfaction,
              static_cast<double>(dm.deadline_met) /
                  static_cast<double>(dm.deadline_total),
              1e-12);
}

TEST(Faults, DeterministicForSeedWithScheduleActive) {
  auto topo = single_device(4.0);
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  const auto schedule = FaultSchedule::server_crash(0, 20.0, 35.0);
  const auto a = Simulator(inst, d, fault_run(80.0, 37, schedule,
                                              FaultPolicy::RetryOnDevice))
                     .run();
  const auto b = Simulator(inst, d, fault_run(80.0, 37, schedule,
                                              FaultPolicy::RetryOnDevice))
                     .run();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.resteered, b.resteered);
  EXPECT_DOUBLE_EQ(a.latency.mean(), b.latency.mean());
  EXPECT_DOUBLE_EQ(a.outage_latency.p99(), b.outage_latency.p99());
}

TEST(Faults, ValidatesScheduleTargetsAndOptions) {
  auto topo = single_device(1.0);
  const ProblemInstance inst(topo);
  const auto d = offload_decision(inst, 1.0, topo.cell(0).bandwidth);
  {
    auto o = fault_run(10.0, 1, FaultSchedule::server_crash(7, 1.0, 2.0),
                       FaultPolicy::Drop);
    EXPECT_THROW(Simulator(inst, d, o), ContractViolation);
  }
  {
    auto o = fault_run(10.0, 1, FaultSchedule::link_outage(3, 1.0, 2.0),
                       FaultPolicy::Drop);
    EXPECT_THROW(Simulator(inst, d, o), ContractViolation);
  }
  {
    auto o = fault_run(10.0, 1, FaultSchedule(), FaultPolicy::RetryOffload);
    o.faults.retry_backoff = 0.0;
    EXPECT_THROW(Simulator(inst, d, o), ContractViolation);
  }
}

}  // namespace
}  // namespace scalpel
