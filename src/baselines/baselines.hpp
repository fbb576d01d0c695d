#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/decision.hpp"
#include "core/instance.hpp"

namespace scalpel {

/// Comparison schemes from the evaluation. Each produces a Decision through
/// the same types, allocates its fixed plans through the joint optimizer's
/// allocation rules (core/objective's fixed-plan path), and is scored by the
/// same evaluator/simulator, so differences are attributable to the scheme
/// alone.
namespace baselines {

/// Everything runs on the device; no exits, no offloading.
Decision device_only(const ProblemInstance& instance);

/// Raw input uploaded, whole model on the edge (cloud/edge-only): cut after
/// the input node; equal bandwidth split per cell; greedy server choice with
/// Kleinrock shares.
Decision edge_only(const ProblemInstance& instance);

/// Neurosurgeon: per-device optimal partition (no exits) under equal
/// bandwidth split; greedy server choice with Kleinrock shares. Partition
/// adapts to the allocation once (no joint iteration).
Decision neurosurgeon(const ProblemInstance& instance);

/// Local multi-exit: exit setting optimized for the device (DP), but
/// everything executes on-device (no offloading).
Decision local_multi_exit(const ProblemInstance& instance);

/// Uniformly random clean cut and random server, equal splits. Seeded.
Decision random_scheme(const ProblemInstance& instance, std::uint64_t seed);

/// Exhaustive joint optimum over (cut x server) with no exits, equal
/// bandwidth, Kleinrock shares — tractable reference for small clusters.
Decision small_exhaustive(const ProblemInstance& instance);

/// All comparison schemes by name, in canonical bench order (excludes
/// small_exhaustive, which is exponential).
std::vector<std::string> names();
Decision by_name(const ProblemInstance& instance, const std::string& name,
                 std::uint64_t seed = 1);

}  // namespace baselines
}  // namespace scalpel
