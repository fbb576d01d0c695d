#pragma once

#include <cstddef>
#include <cstdint>

#include "util/json.hpp"

namespace scalpel::perf {

/// The pinned BENCH_simcore workload: a campus cluster solved once by the
/// joint optimizer, then simulated repeatedly under the resulting decision.
/// The defaults ARE the tracked baseline workload — changing any of them
/// re-defines the scoreboard and requires re-baselining BENCH_simcore.json
/// (procedure: EXPERIMENTS.md, "P1 simcore perf"). Tests shrink the
/// workload via these knobs; such reports are comparable only to
/// themselves.
struct SimcoreBenchConfig {
  std::size_t devices = 48;
  std::size_t servers = 6;
  double arrival_rate = 4.0;   // per device, tasks/s
  double horizon = 180.0;      // simulated seconds
  double warmup = 10.0;
  std::uint64_t cluster_seed = 7;
  std::uint64_t sim_seed = 12345;
  std::size_t des_reps = 6;    // timed DES reps (min taken)
  std::size_t solver_reps = 3; // timed solver reps (min taken)
  /// Shard count for the sharded-engine section (ShardedSimulator on the
  /// same pinned workload). Part of the tracked baseline: the section is
  /// REQUIREd bit-identical to the one-shard run before its timing is
  /// published, so the scoreboard can never quietly track a divergent
  /// engine. 0 drops the section (and the gate's sharded comparison).
  std::size_t shards = 4;
  /// Largest device count of the metro-scale sweep (0 = no sweep). The
  /// sweep runs the sharded engine once per point at max/100, max/10, max
  /// devices and records wall seconds + events/sec — informational scaling
  /// data, not gated. The baseline is produced with 1'000'000.
  std::size_t sweep_max_devices = 0;
  /// Simulated horizon of each sweep point, seconds.
  double sweep_horizon = 60.0;
  /// Artificial slowdown injected into every timed DES rep, as a fraction
  /// of the rep's own runtime (1.0 = 2x slower). Exists so `ci.sh perf`'s
  /// gate can be demonstrated to fail; never set in real measurements.
  double inject_slowdown = 0.0;
};

/// Current report layout; bump on any key/unit change so the gate can
/// refuse to compare across layouts. v2: workload.shards, results.sharded
/// (gated like results.des) and the optional results.metro_sweep array.
constexpr int kSimcoreSchemaVersion = 2;

/// Runs the microbenchmark and returns the BENCH_simcore report (see
/// EXPERIMENTS.md for the schema). One code path serves the bench binary,
/// the schema golden test, and the CI gate, so they can never drift apart.
Json run_simcore_bench(const SimcoreBenchConfig& config);

}  // namespace scalpel::perf
