#include "sim/runner.hpp"

#include <memory>
#include <string>

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace scalpel {

ScenarioRunner::ScenarioRunner(const ProblemInstance& instance,
                               Decision decision, Options options)
    : instance_(&instance), decision_(std::move(decision)),
      options_(std::move(options)) {
  SCALPEL_REQUIRE(options_.replications > 0,
                  "runner needs at least one replication");
  SCALPEL_REQUIRE(options_.sim.horizon > 0.0, "horizon must be positive");
  SCALPEL_REQUIRE(
      options_.sim.warmup >= 0.0 && options_.sim.warmup < options_.sim.horizon,
      "warmup must lie inside the horizon");
  // Every replication copies options_.sim; borrowed sinks would be shared,
  // racing on parallel fan-outs and interleaving runs on serial ones.
  SCALPEL_REQUIRE(options_.replications == 1 ||
                      (options_.sim.recorder == nullptr &&
                       options_.sim.slo == nullptr),
                  "a recorder or SLO monitor needs replications == 1");
}

std::uint64_t ScenarioRunner::replication_seed(std::uint64_t base_seed,
                                               std::size_t r) {
  return Rng::substream_seed(base_seed, static_cast<std::uint64_t>(r));
}

ReplicatedMetrics ScenarioRunner::run() const {
  const std::size_t n = options_.replications;
  // Results land in a pre-sized slot per replication id; the aggregation
  // below is then a fixed-order fold, independent of completion order.
  std::vector<std::unique_ptr<SimMetrics>> results(n);
  const bool tracing = options_.sim.trace_capacity > 0;
  std::vector<std::vector<TraceEvent>> traces(tracing ? n : 0);

  auto run_one = [&](std::size_t r) {
    Simulator::Options o = options_.sim;
    o.seed = replication_seed(options_.sim.seed, r);
    Simulator sim(*instance_, decision_, o);
    results[r] = std::make_unique<SimMetrics>(sim.run());
    if (tracing) traces[r] = sim.trace_events();
  };

  if (n == 1 || options_.threads == 1) {
    for (std::size_t r = 0; r < n; ++r) run_one(r);
  } else {
    ThreadPool pool(options_.threads);
    pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t r = lo; r < hi; ++r) run_one(r);
    });
  }

  ReplicatedMetrics agg;
  agg.replications.reserve(n);
  // Trace slots were filled by replication id, so this is already the
  // thread-count-independent order.
  agg.traces = std::move(traces);
  for (std::size_t r = 0; r < n; ++r) {
    SimMetrics& m = *results[r];
    if (options_.require_completions) {
      SCALPEL_REQUIRE(m.completed > 0,
                      "replication " + std::to_string(r) +
                          " finished zero post-warmup tasks; lengthen the "
                          "horizon or shrink the warmup");
    }
    agg.arrived += m.arrived;
    agg.completed += m.completed;
    agg.failed += m.failed;
    agg.shed += m.shed;
    agg.expired += m.expired;
    agg.availability.add(m.availability);
    if (m.completed + m.failed > 0) {
      agg.failed_fraction.add(static_cast<double>(m.failed) /
                              static_cast<double>(m.completed + m.failed));
    }
    const std::size_t settled = m.completed + m.failed + m.shed + m.expired;
    if (settled > 0) {
      agg.shed_fraction.add(static_cast<double>(m.shed + m.expired) /
                            static_cast<double>(settled));
    }
    if (m.completed > 0) {
      agg.mean_latency.add(m.latency.mean());
      agg.p50_latency.add(m.latency.p50());
      agg.p95_latency.add(m.latency.p95());
      agg.p99_latency.add(m.latency.p99());
      agg.deadline_satisfaction.add(m.deadline_satisfaction);
      agg.accuracy.add(m.measured_accuracy);
      agg.task_energy.add(m.mean_task_energy);
      agg.offload_fraction.add(m.offload_fraction);
      agg.throughput.add(static_cast<double>(m.completed) /
                         (options_.sim.horizon - options_.sim.warmup));
    }
    agg.replications.push_back(std::move(m));
  }
  return agg;
}

}  // namespace scalpel
