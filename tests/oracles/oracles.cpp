#include "oracles/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sched/queueing.hpp"
#include "util/assert.hpp"

namespace scalpel {

SimEvent BinaryHeapEventQueue::pop_min() {
  SCALPEL_REQUIRE(!heap_.empty(), "pop from empty event queue");
  SimEvent out = heap_.top();
  heap_.pop();
  return out;
}

namespace {

// The table dp_exit_setting prices with: every stretch on `profile`.
ExitCostTable device_table(const Graph& backbone,
                           const std::vector<ExitCandidate>& candidates,
                           const ComputeProfile& profile) {
  const ProfileCosts costs = profile_costs(backbone, candidates, profile);
  return build_cost_table(backbone, candidates, -1, 0.0, costs, costs);
}

ExitSettingResult make_result(const std::vector<ExitCandidate>& candidates,
                              const AccuracyModel& acc,
                              const ExitCostTable& table,
                              const DifficultyModel& difficulty,
                              ExitPolicy policy, std::size_t evaluations) {
  ExitSettingResult r;
  r.policy = std::move(policy);
  r.stats = evaluate_policy(candidates, r.policy, acc, difficulty);
  r.expected_latency = policy_cost(candidates, r.policy, r.stats, table);
  r.feasible = true;
  r.evaluations = evaluations;
  return r;
}

}  // namespace

ExitSettingResult exhaustive_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts) {
  const ExitCostTable table = device_table(backbone, candidates, profile);
  ExitPolicy best;
  double best_latency = std::numeric_limits<double>::infinity();
  bool found = false;
  std::size_t evaluations = 0;

  ExitPolicy current;
  // Depth-first enumeration: at each candidate, either skip it or enable it
  // with each theta in the grid.
  auto recurse = [&](auto&& self, std::size_t idx) -> void {
    ++evaluations;
    const ExitStats stats =
        evaluate_policy(candidates, current, acc, opts.difficulty);
    if (stats.expected_accuracy >= opts.min_accuracy) {
      const double latency = policy_cost(candidates, current, stats, table);
      if (latency < best_latency) {
        best_latency = latency;
        best = current;
        found = true;
      }
    }
    if (idx >= candidates.size() || current.exits.size() >= opts.max_exits) {
      return;
    }
    for (std::size_t c = idx; c < candidates.size(); ++c) {
      for (double theta : opts.theta_grid) {
        current.exits.push_back(ExitChoice{c, theta});
        self(self, c + 1);
        current.exits.pop_back();
      }
    }
  };
  recurse(recurse, 0);

  if (!found) {
    ExitSettingResult r;
    r.evaluations = evaluations;
    return r;
  }
  return make_result(candidates, acc, table, opts.difficulty, std::move(best),
                     evaluations);
}

ExitSettingResult greedy_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts) {
  const ExitCostTable table = device_table(backbone, candidates, profile);
  std::size_t evaluations = 0;
  auto eval = [&](const ExitPolicy& p, double* latency) {
    ++evaluations;
    const ExitStats stats =
        evaluate_policy(candidates, p, acc, opts.difficulty);
    *latency = policy_cost(candidates, p, stats, table);
    return stats.expected_accuracy >= opts.min_accuracy;
  };

  ExitPolicy policy;  // empty = vanilla model
  double policy_latency = 0.0;
  const bool base_feasible = eval(policy, &policy_latency);
  if (!base_feasible) {
    // The vanilla model itself violates the floor (min_accuracy > a_max):
    // no exit setting can fix that.
    ExitSettingResult r;
    r.evaluations = evaluations;
    return r;
  }

  while (policy.exits.size() < opts.max_exits) {
    ExitPolicy best_next = policy;
    double best_latency = policy_latency;
    for (std::size_t c = 0; c < candidates.size(); ++c) {
      const bool used =
          std::any_of(policy.exits.begin(), policy.exits.end(),
                      [c](const ExitChoice& e) { return e.candidate == c; });
      if (used) continue;
      for (double theta : opts.theta_grid) {
        ExitPolicy trial = policy;
        // Insert keeping depth order.
        auto it = std::find_if(
            trial.exits.begin(), trial.exits.end(),
            [c](const ExitChoice& e) { return e.candidate > c; });
        trial.exits.insert(it, ExitChoice{c, theta});
        double latency = 0.0;
        if (eval(trial, &latency) && latency < best_latency) {
          best_latency = latency;
          best_next = std::move(trial);
        }
      }
    }
    if (best_latency >= policy_latency) break;  // no improving addition
    policy = std::move(best_next);
    policy_latency = best_latency;
  }
  return make_result(candidates, acc, table, opts.difficulty,
                     std::move(policy), evaluations);
}

OffloadingSolution exhaustive_offloading(const OffloadingProblem& p) {
  p.validate();
  const std::size_t n = p.num_devices();
  const std::size_t m = p.num_servers();
  double combos = 1.0;
  for (std::size_t i = 0; i < n; ++i) {
    combos *= static_cast<double>(m);
    SCALPEL_REQUIRE(combos <= 2e7,
                    "exhaustive offloading limited to small instances");
  }
  std::vector<int> assign(n, 0);
  std::vector<int> best = assign;
  double best_cost = std::numeric_limits<double>::infinity();
  for (;;) {
    const double cost = evaluate_assignment(p, assign, nullptr);
    if (cost < best_cost) {
      best_cost = cost;
      best = assign;
    }
    // Odometer increment.
    std::size_t k = 0;
    while (k < n && ++assign[k] == static_cast<int>(m)) {
      assign[k] = 0;
      ++k;
    }
    if (k == n) break;
  }
  OffloadingSolution s;
  s.server_of = std::move(best);
  s.social_cost = evaluate_assignment(p, s.server_of, &s.latency);
  s.converged = true;
  s.feasible = std::isfinite(s.social_cost);
  return s;
}

std::size_t window_base_row(const TimeSeriesRecorder& rec, double window) {
  if (rec.empty()) return TimeSeriesRecorder::kNoBaseRow;
  const double cutoff = rec.last_time() - window;
  // Sample times are nondecreasing: find the first row past the cutoff.
  std::size_t lo = 0;
  std::size_t hi = rec.size();
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    if (rec.value(mid, 0) <= cutoff) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo == 0 ? TimeSeriesRecorder::kNoBaseRow : lo - 1;
}

std::vector<double> shares::proportional(const std::vector<double>& demands,
                                         double capacity) {
  SCALPEL_REQUIRE(capacity > 0.0, "capacity must be positive");
  double total = 0.0;
  for (double w : demands) {
    SCALPEL_REQUIRE(w >= 0.0, "demands must be non-negative");
    total += w;
  }
  SCALPEL_REQUIRE(total > 0.0, "at least one demand must be positive");
  std::vector<double> out(demands.size(), 0.0);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    out[i] = capacity * demands[i] / total;
  }
  return out;
}

double shares::inverse_cost(const std::vector<double>& demands,
                            const std::vector<double>& alloc) {
  SCALPEL_REQUIRE(demands.size() == alloc.size(),
                  "inverse_cost arity mismatch");
  double cost = 0.0;
  for (std::size_t i = 0; i < demands.size(); ++i) {
    if (demands[i] <= 0.0) continue;
    if (alloc[i] <= 0.0) return std::numeric_limits<double>::infinity();
    cost += demands[i] / alloc[i];
  }
  return cost;
}

double queueing::mm1_wait(double lambda, double mu) {
  SCALPEL_REQUIRE(lambda >= 0.0 && mu > 0.0, "invalid M/M/1 rates");
  if (lambda >= mu) return std::numeric_limits<double>::infinity();
  const double rho = lambda / mu;
  return rho / (mu - lambda);
}

double queueing::mean_sojourn(const std::vector<double>& lambda,
                              const std::vector<double>& work,
                              const std::vector<double>& capacity_split) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  SCALPEL_REQUIRE(lambda.size() == work.size() &&
                      lambda.size() == capacity_split.size(),
                  "mean_sojourn arity mismatch");
  double total_rate = 0.0;
  double weighted = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    if (lambda[i] <= 0.0) continue;
    total_rate += lambda[i];
    if (capacity_split[i] <= 0.0) return kInf;
    const double mu = capacity_split[i] / work[i];
    const double w = mm1_sojourn(lambda[i], mu);
    if (!std::isfinite(w)) return kInf;
    weighted += lambda[i] * w;
  }
  if (total_rate <= 0.0) return 0.0;
  return weighted / total_rate;
}

}  // namespace scalpel
