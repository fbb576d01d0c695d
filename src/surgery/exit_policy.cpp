#include "surgery/exit_policy.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace scalpel {

void validate_policy(const ExitPolicy& policy,
                     const std::vector<ExitCandidate>& candidates) {
  std::size_t prev = 0;
  bool first = true;
  for (const auto& e : policy.exits) {
    SCALPEL_REQUIRE(e.candidate < candidates.size(),
                    "exit candidate index out of range");
    SCALPEL_REQUIRE(first || e.candidate > prev,
                    "policy exits must be strictly increasing by depth");
    SCALPEL_REQUIRE(e.theta >= 0.0 && e.theta < 1.0,
                    "exit theta must be in [0, 1)");
    prev = e.candidate;
    first = false;
  }
}

ExitStats evaluate_policy(const std::vector<ExitCandidate>& candidates,
                          const ExitPolicy& policy, const AccuracyModel& acc,
                          const DifficultyModel& difficulty) {
  validate_policy(policy, candidates);
  ExitStats stats;
  stats.fire_prob.resize(policy.exits.size(), 0.0);

  // Exit i covers difficulties x <= cap(d_i) * (1 - theta_i); a task
  // terminates at the first enabled exit covering its difficulty, so exit
  // i's unconditional fire probability is the *measure* of the newly
  // covered interval under the difficulty distribution.
  double covered = 0.0;  // in difficulty space
  double reach = 1.0;
  double acc_sum = 0.0;
  for (std::size_t i = 0; i < policy.exits.size(); ++i) {
    const auto& choice = policy.exits[i];
    const auto& cand = candidates[choice.candidate];
    const double limit =
        acc.capability(cand.depth_fraction) * (1.0 - choice.theta);
    const double new_covered = std::max(covered, limit);
    const double fire =
        difficulty.cdf(new_covered) - difficulty.cdf(covered);
    stats.fire_prob[i] = fire;
    acc_sum += fire * std::min(acc.selective_ceiling,
                               acc.conditional_accuracy(cand.depth_fraction,
                                                        choice.theta));
    covered = new_covered;
    reach -= fire;
  }
  stats.final_prob = std::max(0.0, reach);
  acc_sum += stats.final_prob * acc.a_max;
  stats.expected_accuracy = acc_sum;
  return stats;
}

}  // namespace scalpel
