// Shard fuzzer: random topologies, random decisions, random fault schedules
// and overload bursts, then the shard-count-invariance contract — the
// whole-run conservation counters (and conservation identity itself, with
// tasks mid-flight across shards at the end) and, when the fuzzer draws an
// obs interval, the recorded time series must not depend on how the
// topology was partitioned or how many workers ran the epochs. The bitwise
// equivalence matrix lives in shard_equivalence_test.cpp; this file hunts
// the configurations nobody thought to enumerate there.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "core/objective.hpp"
#include "ctrl/plane.hpp"
#include "edge/builders.hpp"
#include "obs/timeseries.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

ProblemInstance random_instance(Rng& rng) {
  clusters::CampusOptions copts;
  copts.seed = rng.next_u64();
  copts.num_devices = 4 + static_cast<std::size_t>(rng.uniform(0.0, 6.0));
  copts.num_servers = 1 + static_cast<std::size_t>(rng.uniform(0.0, 3.0));
  copts.devices_per_cell = 1 + static_cast<std::size_t>(rng.uniform(0.0, 3.0));
  copts.cell_rtt = rng.uniform(1e-3, 20e-3);
  copts.mean_arrival_rate = rng.uniform(0.5, 4.0);
  copts.deadline = rng.uniform() < 0.3 ? 0.0 : rng.uniform(0.1, 0.5);
  return ProblemInstance(clusters::campus(copts));
}

Decision random_decision(const ProblemInstance& instance, Rng& rng) {
  Decision d;
  d.scheme = "fuzz";
  const auto& topo = instance.topology();
  // Bandwidth grants summed per cell must stay within the cell uplink even
  // if every device in the cell offloads.
  std::vector<std::size_t> cell_population(topo.cells().size(), 0);
  for (const auto& dev : topo.devices()) {
    ++cell_population[static_cast<std::size_t>(dev.cell)];
  }
  d.per_device.resize(topo.devices().size());
  for (std::size_t i = 0; i < d.per_device.size(); ++i) {
    auto& dd = d.per_device[i];
    if (rng.uniform() < 0.3 || topo.servers().empty()) {
      dd.plan.device_only = true;
      continue;
    }
    dd.plan.partition_after = 0;
    dd.server = static_cast<ServerId>(
        rng.uniform(0.0, static_cast<double>(topo.servers().size()) - 0.01));
    // Shares summed per server must stay within capacity even if every
    // device lands on the same one.
    dd.compute_share =
        rng.uniform(0.2, 0.9) / static_cast<double>(d.per_device.size());
    const Cell& cell = topo.cell(topo.devices()[i].cell);
    const double cap =
        cell.bandwidth /
        static_cast<double>(cell_population[static_cast<std::size_t>(cell.id)]);
    dd.bandwidth = std::min(mbps(rng.uniform(10.0, 60.0)), cap);
  }
  evaluate_decision(instance, d);
  return d;
}

/// The engine samples no faster than the controller ticks.
void cap_obs_interval(Simulator::Options& opts) {
  if (opts.control_interval > 0.0) {
    opts.obs_interval = std::min(opts.obs_interval, opts.control_interval);
  }
}

/// `opts` sampling into `rec` when the fuzzer drew an obs interval.
Simulator::Options with_recorder(Simulator::Options opts,
                                 TimeSeriesRecorder& rec) {
  if (opts.obs_interval > 0.0) opts.recorder = &rec;
  return opts;
}

Simulator::Options random_options(const ProblemInstance& instance, Rng& rng) {
  Simulator::Options opts;
  opts.horizon = rng.uniform(4.0, 8.0);
  opts.warmup = rng.uniform(0.0, 1.0);
  opts.seed = rng.next_u64();
  if (rng.uniform() < 0.5) opts.obs_interval = rng.uniform(0.3, 1.0);
  if (rng.uniform() < 0.5) opts.burst_factor = rng.uniform(0.1, 0.7);

  // Random fault schedule over real targets.
  const auto& topo = instance.topology();
  if (rng.uniform() < 0.7) {
    std::vector<FaultEvent> events;
    const int n = 1 + static_cast<int>(rng.uniform(0.0, 4.0));
    for (int i = 0; i < n; ++i) {
      FaultEvent ev;
      ev.time = rng.uniform(0.5, opts.horizon);
      const bool server = !topo.servers().empty() && rng.uniform() < 0.6;
      ev.target = server ? FaultTarget::Server : FaultTarget::Link;
      const std::size_t limit =
          server ? topo.servers().size() : topo.cells().size();
      ev.id = static_cast<std::int32_t>(
          rng.uniform(0.0, static_cast<double>(limit) - 0.01));
      ev.up = rng.uniform() < 0.4;
      events.push_back(ev);
    }
    std::sort(events.begin(), events.end(),
              [](const FaultEvent& a, const FaultEvent& b) {
                return a.time < b.time;
              });
    opts.faults.schedule = FaultSchedule(events);
    const FaultPolicy policies[] = {FaultPolicy::Drop,
                                    FaultPolicy::RetryOnDevice,
                                    FaultPolicy::RetryOffload};
    opts.faults.policy = policies[rng.next_u64() % 3];
  }

  // Random telemetry impairment. The channel is only sampled on controller
  // ticks, so a control interval rides along; the controller itself is
  // attached by the test body.
  if (rng.uniform() < 0.5) {
    opts.control_interval = rng.uniform(0.3, 1.5);
    if (rng.uniform() < 0.6) opts.telemetry.delay = rng.uniform(0.0, 1.0);
    if (rng.uniform() < 0.6) opts.telemetry.drop_prob = rng.uniform(0.0, 0.6);
    if (rng.uniform() < 0.6) opts.telemetry.noise_sigma = rng.uniform(0.0, 0.5);
    if (rng.uniform() < 0.4) opts.telemetry.quantum = mbps(rng.uniform(0.5, 4.0));
    if (rng.uniform() < 0.6) opts.telemetry.flip_prob = rng.uniform(0.0, 0.3);
  }
  cap_obs_interval(opts);

  // Random overload posture and a burst window.
  if (rng.uniform() < 0.7) {
    const OverloadPolicy policies[] = {OverloadPolicy::Block,
                                       OverloadPolicy::ShedNewest,
                                       OverloadPolicy::ShedExpired};
    opts.overload.policy = policies[rng.next_u64() % 3];
    opts.overload.device_queue_limit =
        static_cast<std::size_t>(rng.uniform(0.0, 5.0));
    opts.overload.upload_queue_limit =
        static_cast<std::size_t>(rng.uniform(0.0, 4.0));
    opts.overload.server_queue_limit =
        static_cast<std::size_t>(rng.uniform(0.0, 4.0));
    const double start = rng.uniform(0.5, opts.horizon * 0.6);
    opts.rate_bursts.push_back(
        RateBurst{start, start + rng.uniform(0.5, opts.horizon * 0.4),
                  rng.uniform(2.0, 6.0)});
  }
  return opts;
}

TEST(ShardFuzz, ConservationIsShardCountInvariant) {
  Rng rng(20260808);
  for (int iter = 0; iter < 12; ++iter) {
    SCOPED_TRACE(::testing::Message() << "iteration " << iter);
    const ProblemInstance instance = random_instance(rng);
    const Decision d = random_decision(instance, rng);
    const Simulator::Options opts = random_options(instance, rng);

    std::vector<double> gate;
    if (rng.uniform() < 0.4) {
      for (std::size_t i = 0; i < instance.topology().devices().size(); ++i) {
        gate.push_back(rng.uniform(0.4, 1.0));
      }
    }

    // When telemetry rode along, close the loop: a stateless policy keyed
    // off the (possibly impaired) readings, shared across all runs so any
    // divergence in what the channel delivered diverges the counters.
    ObservingController controller;
    if (opts.control_interval > 0.0) {
      Decision d_local;
      d_local.scheme = "fuzz-local";
      d_local.per_device.resize(instance.topology().devices().size());
      for (auto& dd : d_local.per_device) dd.plan.device_only = true;
      evaluate_decision(instance, d_local);
      controller = [d, d_local](const Observation& o) {
        ControlAction a;
        double sum = 0.0;
        for (const double v : o.cell_bandwidth) sum += v / mbps(1.0);
        bool any_down = false;
        for (const bool up : o.server_alive) any_down = any_down || !up;
        a.decision = (any_down || std::fmod(sum, 2.0) < 1.0) ? d_local : d;
        return a;
      };
    }

    TimeSeriesRecorder ref_rec;
    Simulator ref(instance, d, with_recorder(opts, ref_rec));
    if (!gate.empty()) ref.set_admission(gate);
    if (controller) ref.set_controller(controller);
    const SimMetrics ref_m = ref.run();
    const std::string ref_series = ref_rec.to_json().dump();

    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      for (const std::size_t threads : {1u, 2u}) {
        SCOPED_TRACE(::testing::Message()
                     << "shards=" << shards << " threads=" << threads);
        ShardOptions sopts;
        sopts.shards = shards;
        sopts.threads = threads;
        TimeSeriesRecorder rec;
        ShardedSimulator sim(instance, d, with_recorder(opts, rec), sopts);
        if (!gate.empty()) sim.set_admission(gate);
        if (controller) sim.set_controller(controller);
        const SimMetrics m = sim.run();

        // Conservation with cross-shard in-flight tasks at the end: every
        // arrival is terminal or live, exactly once, however sharded.
        EXPECT_EQ(m.arrived, m.completed_all + m.failed_all + m.shed_all +
                                 m.in_flight_end);
        EXPECT_EQ(ref_m.arrived, m.arrived);
        EXPECT_EQ(ref_m.completed_all, m.completed_all);
        EXPECT_EQ(ref_m.failed_all, m.failed_all);
        EXPECT_EQ(ref_m.shed_all, m.shed_all);
        EXPECT_EQ(ref_m.in_flight_end, m.in_flight_end);
        EXPECT_EQ(ref_m.retried, m.retried);
        EXPECT_EQ(ref_m.resteered, m.resteered);
        EXPECT_EQ(ref_m.events_processed, m.events_processed);
        EXPECT_EQ(rec.to_json().dump(), ref_series);
      }
    }
  }
}

// Distributed-control fuzz: random fabrics (loss, reorder), random
// coordinator/controller churn, random data-plane faults — a fresh
// DistributedControlPlane per run must leave conservation shard-count
// invariant AND replay the identical protocol history (audit trail,
// epoch rejections, dead letters) for every shard x thread configuration.
TEST(ShardFuzz, DistributedPlaneIsShardCountInvariant) {
  Rng rng(20260809);
  for (int iter = 0; iter < 8; ++iter) {
    SCOPED_TRACE(::testing::Message() << "iteration " << iter);
    const ProblemInstance instance = random_instance(rng);
    const Decision d = random_decision(instance, rng);
    Simulator::Options opts = random_options(instance, rng);
    // The plane is the controller here; make sure it actually ticks.
    if (opts.control_interval <= 0.0) {
      opts.control_interval = rng.uniform(0.3, 1.5);
      cap_obs_interval(opts);
    }

    DistributedPlaneOptions popts;
    popts.seed = rng.next_u64();
    if (rng.uniform() < 0.7) {
      popts.fabric.delay = rng.uniform(0.0, 0.5);
      popts.fabric.jitter = rng.uniform(0.0, 2.0);
      popts.fabric.drop_prob = rng.uniform(0.0, 0.4);
    }
    popts.cell.solver = [](const ProblemInstance& sub, const JointOptions&) {
      Decision plan;
      plan.scheme = "stub";
      const auto& topo = sub.topology();
      const auto n = static_cast<double>(topo.devices().size());
      plan.per_device.resize(topo.devices().size());
      for (auto& dd : plan.per_device) {
        dd.plan.partition_after = 0;
        dd.server = 0;
        dd.compute_share = 0.9 / n;
        dd.bandwidth = 0.9 * topo.cell(0).bandwidth / n;
      }
      return plan;
    };
    // Controller churn over endpoint ids 0..num_cells (0 = coordinator).
    if (rng.uniform() < 0.8) {
      const std::size_t endpoints = 1 + instance.topology().cells().size();
      std::vector<FaultEvent> churn;
      const int n = 1 + static_cast<int>(rng.uniform(0.0, 3.0));
      for (int i = 0; i < n; ++i) {
        const double down = rng.uniform(0.5, opts.horizon * 0.7);
        const auto victim = static_cast<std::int32_t>(
            rng.uniform(0.0, static_cast<double>(endpoints) - 0.01));
        churn.push_back({down, FaultTarget::Server, victim, false});
        churn.push_back({down + rng.uniform(0.5, opts.horizon * 0.4),
                         FaultTarget::Server, victim, true});
      }
      std::sort(churn.begin(), churn.end(),
                [](const FaultEvent& a, const FaultEvent& b) {
                  return a.time < b.time;
                });
      popts.controller_faults = FaultSchedule(churn);
    }

    DistributedControlPlane ref_plane(instance.topology(), popts);
    TimeSeriesRecorder ref_rec;
    Simulator ref(instance, d, with_recorder(opts, ref_rec));
    ref.set_controller(ref_plane.callback());
    const SimMetrics ref_m = ref.run();
    const std::string ref_series = ref_rec.to_json().dump();
    const std::string ref_audit =
        ref_plane.audit_log().to_json().dump_pretty();

    for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
      for (const std::size_t threads : {1u, 2u}) {
        SCOPED_TRACE(::testing::Message()
                     << "shards=" << shards << " threads=" << threads);
        ShardOptions sopts;
        sopts.shards = shards;
        sopts.threads = threads;
        DistributedControlPlane plane(instance.topology(), popts);
        TimeSeriesRecorder rec;
        ShardedSimulator sim(instance, d, with_recorder(opts, rec), sopts);
        sim.set_controller(plane.callback());
        const SimMetrics m = sim.run();

        EXPECT_EQ(m.arrived, m.completed_all + m.failed_all + m.shed_all +
                                 m.in_flight_end);
        EXPECT_EQ(ref_m.arrived, m.arrived);
        EXPECT_EQ(ref_m.completed_all, m.completed_all);
        EXPECT_EQ(ref_m.failed_all, m.failed_all);
        EXPECT_EQ(ref_m.shed_all, m.shed_all);
        EXPECT_EQ(ref_m.in_flight_end, m.in_flight_end);
        EXPECT_EQ(ref_m.events_processed, m.events_processed);
        EXPECT_EQ(plane.audit_log().to_json().dump_pretty(), ref_audit);
        EXPECT_EQ(plane.plan_changes(), ref_plane.plan_changes());
        EXPECT_EQ(plane.local_solves(), ref_plane.local_solves());
        EXPECT_EQ(plane.epochs_rejected(), ref_plane.epochs_rejected());
        EXPECT_EQ(plane.dead_letters(), ref_plane.dead_letters());
        EXPECT_EQ(plane.fabric().dropped(), ref_plane.fabric().dropped());
        EXPECT_EQ(rec.to_json().dump(), ref_series);
      }
    }
  }
}

}  // namespace
}  // namespace scalpel
