#pragma once

#include <cstdint>
#include <vector>

#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "util/stats.hpp"

namespace scalpel {

/// Replication-level aggregates of a fan-out of independent simulator runs.
/// Each Samples member holds ONE scalar per replication (e.g. that
/// replication's mean latency), indexed in replication order regardless of
/// which thread ran it — so every derived statistic is bit-identical for any
/// thread count. Pass any member to summarize() for mean / stddev / 95% CI.
struct ReplicatedMetrics {
  std::vector<SimMetrics> replications;  // indexed by replication id

  Samples mean_latency;           // seconds
  Samples p50_latency;            // seconds
  Samples p95_latency;            // seconds
  Samples p99_latency;            // seconds
  Samples deadline_satisfaction;  // fraction in [0, 1]
  Samples accuracy;               // expectation-based, [0, 1]
  Samples task_energy;            // joules per completed task
  Samples offload_fraction;       // fraction in [0, 1]
  Samples throughput;             // post-warmup completions per second
  Samples availability;           // schedule-implied server up-fraction
  Samples failed_fraction;        // failed / (completed + failed), post-warmup
  /// (shed + expired) / (completed + failed + shed + expired), post-warmup.
  Samples shed_fraction;

  std::size_t arrived = 0;    // total across replications
  std::size_t completed = 0;  // total across replications
  std::size_t failed = 0;     // post-warmup fault-policy drops, total
  std::size_t shed = 0;       // post-warmup overload drops, total
  std::size_t expired = 0;    // post-warmup deadline-expiry drops, total

  /// Per-replication event traces in reconciled order, indexed by
  /// replication id (empty unless Options::sim.trace_capacity > 0). Each
  /// trace is the bit-identical stream the replication's seed produces,
  /// regardless of thread count.
  std::vector<std::vector<TraceEvent>> traces;
};

/// Fans N independent replications of one (instance, decision) scenario out
/// across a thread pool, each on the one-shard Simulator (the engine's
/// outputs do not depend on its shard count, and the fan-out already keeps
/// every core busy). Replication r simulates with the substream seed
/// derived from (options.sim.seed, r) — a pure function, so the aggregate is
/// bit-identical whether the fan-out runs on 1 thread or 64, and any single
/// replication can be re-run alone for debugging.
class ScenarioRunner {
 public:
  struct Options {
    std::size_t replications = 8;
    /// Worker threads for the fan-out; 0 means one per usable CPU.
    std::size_t threads = 0;
    /// Template for every replication; `sim.seed` is the *base* seed each
    /// replication substreams from, not the seed any replication runs with.
    /// Its borrowed `recorder` and `slo` must be null unless replications
    /// is 1: one sink cannot take the samples of several runs.
    Simulator::Options sim;
    /// Reject replications whose post-warmup completion count is zero
    /// instead of silently aggregating empty Samples (the classic
    /// short-horizon footgun).
    bool require_completions = true;
  };

  ScenarioRunner(const ProblemInstance& instance, Decision decision,
                 Options options);

  /// Runs all replications (blocking) and aggregates in replication order.
  ReplicatedMetrics run() const;

  /// The seed replication `r` simulates with. Exposed so a failing
  /// replication can be reproduced with a plain single-run Simulator.
  static std::uint64_t replication_seed(std::uint64_t base_seed,
                                        std::size_t r);

 private:
  const ProblemInstance* instance_;
  Decision decision_;
  Options options_;
};

}  // namespace scalpel
