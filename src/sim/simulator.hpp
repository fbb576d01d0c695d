#pragma once

#include <utility>

#include "sim/shard.hpp"

namespace scalpel {

/// The event engine at one shard on the calling thread. Its outputs are
/// bit-identical to ShardedSimulator's at any shard and thread count
/// (pinned by tests/sim/sim_golden_test.cpp); one shard also means one
/// trace ring, which trace() exposes directly.
class Simulator final : public ShardedSimulator {
 public:
  Simulator(const ProblemInstance& instance, Decision decision,
            Options options)
      : ShardedSimulator(instance, std::move(decision), std::move(options),
                         ShardOptions{/*shards=*/1, /*threads=*/1}) {}

  /// Per-task lifecycle events of the (finished or in-progress) run; empty
  /// unless Options::trace_capacity > 0. Events appear in causal recording
  /// order; a fixed seed yields a bit-identical stream.
  const TaskTracer& trace() const { return serial_tracer(); }
};

}  // namespace scalpel
