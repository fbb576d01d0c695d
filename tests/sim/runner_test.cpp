#include "sim/runner.hpp"

#include <gtest/gtest.h>

#include <set>

#include "core/objective.hpp"
#include "edge/builders.hpp"
#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "profile/compute_profile.hpp"
#include "profile/energy_model.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

/// One device / one server / one cell topology with controllable rate.
ClusterTopology single_device(double rate) {
  ClusterTopology t;
  const CellId cell = t.add_cell(Cell{-1, "c", mbps(100.0), ms(1.0)});
  Device d;
  d.name = "dev";
  d.compute = profiles::smartphone();
  d.energy = profiles::energy_phone();
  d.cell = cell;
  d.model = "tiny_cnn";
  d.arrival_rate = rate;
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

ScenarioRunner::Options runner_opts(std::size_t replications,
                                    std::size_t threads,
                                    std::uint64_t seed = 21,
                                    double horizon = 60.0) {
  ScenarioRunner::Options o;
  o.replications = replications;
  o.threads = threads;
  o.sim.horizon = horizon;
  o.sim.warmup = horizon * 0.1;
  o.sim.seed = seed;
  return o;
}

TEST(ScenarioRunner, AggregateBitIdenticalAcrossThreadCounts) {
  // The acceptance contract: same seed + replication count => the aggregate
  // SimMetrics fold is bit-identical no matter how the fan-out is scheduled.
  const ProblemInstance inst(single_device(4.0));
  const auto d = local_decision(inst);
  const auto base =
      ScenarioRunner(inst, d, runner_opts(8, 1)).run();
  for (std::size_t threads : {2ul, 8ul}) {
    const auto m =
        ScenarioRunner(inst, d, runner_opts(8, threads)).run();
    EXPECT_EQ(m.arrived, base.arrived);
    EXPECT_EQ(m.completed, base.completed);
    // values() preserves replication order, so bitwise equality is exact.
    EXPECT_EQ(m.mean_latency.values(), base.mean_latency.values());
    EXPECT_EQ(m.p99_latency.values(), base.p99_latency.values());
    EXPECT_EQ(m.throughput.values(), base.throughput.values());
    EXPECT_EQ(m.deadline_satisfaction.values(),
              base.deadline_satisfaction.values());
    EXPECT_DOUBLE_EQ(summarize(m.mean_latency).ci95,
                     summarize(base.mean_latency).ci95);
    ASSERT_EQ(m.replications.size(), base.replications.size());
    for (std::size_t r = 0; r < m.replications.size(); ++r) {
      EXPECT_EQ(m.replications[r].completed, base.replications[r].completed);
    }
  }
}

TEST(ScenarioRunner, FaultScheduleAggregatesBitIdenticalAcrossThreads) {
  // Fault injection must not break the determinism contract: with a crash /
  // recovery script active, per-replication and folded aggregates are still
  // bit-identical for 1, 2, and 8 worker threads.
  const ProblemInstance inst(single_device(4.0));
  Decision d;
  d.scheme = "test_offload";
  d.per_device.resize(1);
  d.per_device[0].plan.partition_after = 0;
  d.per_device[0].server = 0;
  d.per_device[0].compute_share = 1.0;
  d.per_device[0].bandwidth = inst.topology().cell(0).bandwidth;
  evaluate_decision(inst, d);

  auto with_faults = [&](std::size_t threads) {
    auto o = runner_opts(8, threads);
    o.sim.faults.schedule = FaultSchedule::server_crash(0, 20.0, 35.0);
    o.sim.faults.policy = FaultPolicy::RetryOffload;
    o.sim.faults.max_retries = 50;
    o.sim.faults.retry_timeout = 40.0;
    return ScenarioRunner(inst, d, o).run();
  };
  const auto base = with_faults(1);
  EXPECT_GT(base.failed + base.arrived - base.completed, 0u);
  EXPECT_EQ(base.availability.count(), 8u);
  for (std::size_t threads : {2ul, 8ul}) {
    const auto m = with_faults(threads);
    EXPECT_EQ(m.arrived, base.arrived);
    EXPECT_EQ(m.completed, base.completed);
    EXPECT_EQ(m.failed, base.failed);
    EXPECT_EQ(m.mean_latency.values(), base.mean_latency.values());
    EXPECT_EQ(m.availability.values(), base.availability.values());
    EXPECT_EQ(m.failed_fraction.values(), base.failed_fraction.values());
    ASSERT_EQ(m.replications.size(), base.replications.size());
    for (std::size_t r = 0; r < m.replications.size(); ++r) {
      EXPECT_EQ(m.replications[r].completed, base.replications[r].completed);
      EXPECT_EQ(m.replications[r].failed, base.replications[r].failed);
      EXPECT_EQ(m.replications[r].retried, base.replications[r].retried);
    }
  }
}

TEST(ScenarioRunner, DistinctSubstreamsPerReplicationId) {
  std::set<std::uint64_t> seeds;
  for (std::size_t r = 0; r < 64; ++r) {
    seeds.insert(ScenarioRunner::replication_seed(21, r));
  }
  EXPECT_EQ(seeds.size(), 64u);

  // Distinct substreams must actually decorrelate the trajectories: across 8
  // replications the completion counts cannot all collapse to one value.
  const ProblemInstance inst(single_device(4.0));
  const auto m =
      ScenarioRunner(inst, local_decision(inst), runner_opts(8, 4)).run();
  std::set<std::size_t> completed;
  for (const auto& rep : m.replications) completed.insert(rep.completed);
  EXPECT_GT(completed.size(), 1u);
}

TEST(ScenarioRunner, ReplicationReproducibleAsSingleRun) {
  // Any replication can be re-run standalone with its published seed — the
  // debugging workflow the substream design exists for.
  const ProblemInstance inst(single_device(4.0));
  const auto d = local_decision(inst);
  const auto opts = runner_opts(4, 4);
  const auto m = ScenarioRunner(inst, d, opts).run();
  for (std::size_t r = 0; r < 4; ++r) {
    Simulator::Options o = opts.sim;
    o.seed = ScenarioRunner::replication_seed(opts.sim.seed, r);
    Simulator solo(inst, d, o);
    const auto sm = solo.run();
    EXPECT_EQ(sm.completed, m.replications[r].completed);
    EXPECT_DOUBLE_EQ(sm.latency.mean(), m.replications[r].latency.mean());
  }
}

TEST(ScenarioRunner, BaseSeedChangesEveryReplication) {
  const ProblemInstance inst(single_device(4.0));
  const auto d = local_decision(inst);
  const auto a = ScenarioRunner(inst, d, runner_opts(4, 2, 21)).run();
  const auto b = ScenarioRunner(inst, d, runner_opts(4, 2, 22)).run();
  EXPECT_NE(a.mean_latency.values(), b.mean_latency.values());
}

TEST(ScenarioRunner, SummaryShapesMatchReplicationCount) {
  const ProblemInstance inst(single_device(4.0));
  const auto m =
      ScenarioRunner(inst, local_decision(inst), runner_opts(8, 0)).run();
  const Summary s = summarize(m.mean_latency);
  EXPECT_EQ(s.n, 8u);
  EXPECT_GT(s.mean, 0.0);
  EXPECT_GT(s.ci95, 0.0);
  EXPECT_EQ(m.mean_latency.count(), 8u);
  EXPECT_EQ(m.accuracy.count(), 8u);
  EXPECT_EQ(m.task_energy.count(), 8u);
  EXPECT_EQ(m.offload_fraction.count(), 8u);
  EXPECT_EQ(m.replications.size(), 8u);
}

TEST(ScenarioRunner, RequireCompletionsRejectsEmptyReplications) {
  // Arrivals at 0.001/s essentially never land inside a 1 s horizon: with
  // require_completions the runner must refuse to aggregate zeros.
  const ProblemInstance inst(single_device(0.001));
  const auto d = local_decision(inst);
  auto opts = runner_opts(2, 1, 5, 1.0);
  EXPECT_THROW(ScenarioRunner(inst, d, opts).run(), ContractViolation);
  opts.require_completions = false;
  const auto m = ScenarioRunner(inst, d, opts).run();
  EXPECT_EQ(m.completed, 0u);
  EXPECT_TRUE(m.mean_latency.empty());
  EXPECT_EQ(m.replications.size(), 2u);
}

TEST(ScenarioRunner, ValidatesOptions) {
  const ProblemInstance inst(single_device(1.0));
  const auto d = local_decision(inst);
  {
    auto o = runner_opts(0, 1);
    EXPECT_THROW(ScenarioRunner(inst, d, o), ContractViolation);
  }
  {
    auto o = runner_opts(2, 1);
    o.sim.warmup = o.sim.horizon;
    EXPECT_THROW(ScenarioRunner(inst, d, o), ContractViolation);
  }
}

TEST(ScenarioRunner, RejectsSharedSinksAcrossReplications) {
  // One recorder or SLO monitor cannot take the samples of several runs:
  // parallel replications would race on it, serial ones interleave rows.
  const ProblemInstance inst(single_device(1.0));
  const auto d = local_decision(inst);
  TimeSeriesRecorder rec;
  SloMonitor slo(&rec);
  {
    auto o = runner_opts(2, 1);
    o.sim.obs_interval = 1.0;
    o.sim.recorder = &rec;
    EXPECT_THROW(ScenarioRunner(inst, d, o), ContractViolation);
  }
  {
    auto o = runner_opts(2, 1);
    o.sim.slo = &slo;
    EXPECT_THROW(ScenarioRunner(inst, d, o), ContractViolation);
  }
  // A single replication may borrow them like a plain Simulator.
  auto o = runner_opts(1, 1);
  o.sim.obs_interval = 1.0;
  o.sim.recorder = &rec;
  o.sim.slo = &slo;
  ScenarioRunner(inst, d, o).run();
  EXPECT_EQ(rec.size(), 60u);
}

}  // namespace
}  // namespace scalpel
