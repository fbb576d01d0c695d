#pragma once

#include <cstddef>
#include <vector>

#include "surgery/accuracy_model.hpp"
#include "surgery/difficulty.hpp"
#include "surgery/exit_candidates.hpp"

namespace scalpel {

/// One enabled exit: which candidate, and how aggressive. theta in [0, 1):
/// 0 fires on everything the exit can cover, ~1 fires on (almost) nothing.
struct ExitChoice {
  std::size_t candidate = 0;
  double theta = 0.3;

  bool operator==(const ExitChoice&) const = default;
};

/// An ordered (by depth) set of enabled exits over a fixed candidate list.
/// The empty policy is the vanilla single-exit model.
struct ExitPolicy {
  std::vector<ExitChoice> exits;

  bool operator==(const ExitPolicy&) const = default;
};

/// Closed-form behaviour of a policy under the difficulty/accuracy model.
struct ExitStats {
  /// Unconditional probability of terminating at enabled exit i.
  std::vector<double> fire_prob;
  /// Probability of falling through to the backbone's final exit.
  double final_prob = 1.0;
  /// Expected top-1 accuracy across the input distribution.
  double expected_accuracy = 0.0;
};

/// Validates a policy against the candidate list: indices in range, strictly
/// increasing by candidate (hence by depth), thetas in [0, 1).
void validate_policy(const ExitPolicy& policy,
                     const std::vector<ExitCandidate>& candidates);

/// Evaluate a policy analytically. Exit i fires on difficulties up to
/// capability(d_i) * (1 - theta_i) not already absorbed by an earlier exit;
/// the captured probability mass is that interval's measure under
/// `difficulty` (Uniform by default). The policy's latency is priced by
/// policy_cost (surgery/cost_table).
ExitStats evaluate_policy(const std::vector<ExitCandidate>& candidates,
                          const ExitPolicy& policy, const AccuracyModel& acc,
                          const DifficultyModel& difficulty = {});

}  // namespace scalpel
