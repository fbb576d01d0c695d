#include "surgery/exit_setting.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "util/assert.hpp"

namespace scalpel {

namespace {

// The coverage-discretized exit-setting DP, split so that one running state
// can be forked: advance() folds one candidate into a frontier under one
// table's prices, finish() selects, repairs and polishes a finished frontier.
// Candidate i's transition reads only segment[i] and head[i], so a frontier
// advanced over [0, k) under one table is exactly the frontier any table
// equal to it on [0, k) would have reached.
class ExitDp {
 public:
  // Labels are PODs: the decision trace lives in a shared parent-pointer
  // arena (`steps_`) and only the winning label's chain is materialized at
  // the end, so no skip/enable transition allocates.
  struct Label {
    double accuracy;  // accumulated accuracy mass
    double latency;   // accumulated expected latency
    std::size_t exit_count;
    std::int32_t step = -1;  // index into `steps_`; -1 = no exits enabled
  };
  // frontier[b] = Pareto set of labels with coverage bin b, sorted by
  // latency (staircase_insert).
  using Frontier = std::vector<std::vector<Label>>;

  ExitDp(const std::vector<ExitCandidate>& candidates,
         const AccuracyModel& acc, const ExitSettingOptions& opts)
      : candidates_(candidates),
        acc_(acc),
        opts_(opts),
        bins_(opts.coverage_bins + 1),  // bin b = coverage b/bins
        thetas_(opts.theta_grid.size()),
        next_(bins_),
        bin_cdf_(bins_),
        bin_reach_(bins_),
        theta_limit_(candidates.size() * thetas_),
        theta_limit_cdf_(candidates.size() * thetas_),
        theta_correct_(candidates.size() * thetas_),
        fire_(thetas_),
        fire_bin_(thetas_) {
    // Bin-indexed difficulty mass and per-(candidate, theta) firing windows
    // are loop invariants; hoisting them keeps the inner loop free of
    // transcendental calls without changing a single computed value.
    for (std::size_t b = 0; b < bins_; ++b) {
      bin_cdf_[b] = opts.difficulty.cdf(coverage_of_bin(b));
      bin_reach_[b] = 1.0 - bin_cdf_[b];
    }
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const double cap = acc.capability(candidates[i].depth_fraction);
      for (std::size_t t = 0; t < thetas_; ++t) {
        const double theta = opts.theta_grid[t];
        const double limit = cap * (1.0 - theta);
        theta_limit_[i * thetas_ + t] = limit;
        // Read only from bins covering less than the limit, and only when
        // exits may be enabled.
        theta_limit_cdf_[i * thetas_ + t] =
            opts.max_exits > 0 && limit > 0.0 ? opts.difficulty.cdf(limit)
                                              : 0.0;
        theta_correct_[i * thetas_ + t] = std::min(
            acc.selective_ceiling,
            acc.conditional_accuracy(candidates[i].depth_fraction, theta));
      }
    }
  }

  Frontier start() const {
    Frontier frontier(bins_);
    frontier[0].push_back(Label{0.0, 0.0, 0, -1});
    return frontier;
  }

  std::size_t steps() const { return steps_.size(); }
  // Drops the decision steps a finished fork appended past `mark`.
  void truncate_steps(std::size_t mark) { steps_.resize(mark); }

  // Folds candidate i into `frontier` under `costs`' prices, counting the
  // labels it folds into `labels`.
  void advance(Frontier& frontier, std::size_t i, const ExitCostTable& costs,
               std::size_t& evaluations, std::size_t& labels) {
    for (auto& set : next_) set.clear();
    const double segment = costs.segment[i];
    const double head = costs.head[i];
    for (std::size_t b = 0; b < bins_; ++b) {
      if (frontier[b].empty()) continue;
      labels += frontier[b].size();
      // An exit at theta fires on the difficulty mass between the covered
      // mass and its limit, and lands in the bin of whichever is higher.
      // Both depend on the bin alone, so they are set once per bin:
      // cdf(max(covered, limit)) is one of the two hoisted cdf values.
      const double covered = coverage_of_bin(b);
      for (std::size_t t = 0; t < thetas_; ++t) {
        const double limit = theta_limit_[i * thetas_ + t];
        const double entry_cdf =
            covered < limit ? theta_limit_cdf_[i * thetas_ + t] : bin_cdf_[b];
        fire_[t] = std::max(0.0, entry_cdf - bin_cdf_[b]);
        fire_bin_[t] = bin_of_coverage(std::max(covered, limit));
      }
      for (const auto& label : frontier[b]) {
        // Reach is the probability mass above the covered difficulty.
        const double reach = bin_reach_[b];
        // Everyone still running pays the backbone segment to candidate i.
        const double base_latency = label.latency + reach * segment;

        // Option 1: skip candidate i.
        {
          Label skip = label;
          skip.latency = base_latency;
          staircase_insert(next_[b], skip);
          ++evaluations;
        }
        // Option 2: enable with each theta.
        if (label.exit_count < opts_.max_exits) {
          for (std::size_t t = 0; t < thetas_; ++t) {
            Label en = label;
            en.latency = base_latency + reach * head;
            en.accuracy += fire_[t] * theta_correct_[i * thetas_ + t];
            en.exit_count += 1;
            en.step = static_cast<std::int32_t>(steps_.size());
            if (staircase_insert(next_[fire_bin_[t]], en)) {
              steps_.push_back(
                  Step{label.step, ExitChoice{i, opts_.theta_grid[t]}});
            }
            ++evaluations;
          }
        }
      }
    }
    frontier.swap(next_);
  }

  // Selects the best terminal label of a fully advanced frontier that meets
  // `min_accuracy`, then verifies, repairs and polishes it against `costs`
  // exactly. The floor is read here and nowhere else, so one frontier can
  // be finished at several floors.
  ExitSettingResult finish(const Frontier& frontier, const ExitCostTable& costs,
                           std::size_t evaluations, double min_accuracy) {
    // Terminal: tasks still running pay the tail segment and score a_max.
    const Label* best = nullptr;
    double best_latency = std::numeric_limits<double>::infinity();
    finals_.clear();
    for (std::size_t b = 0; b < bins_; ++b) {
      for (const auto& label : frontier[b]) {
        const double reach = bin_reach_[b];
        Label f = label;
        f.latency += reach * costs.tail;
        f.accuracy += reach * acc_.a_max;
        finals_.push_back(f);
      }
    }
    // Coverage discretization can overstate a label's accuracy by up to one
    // bin's worth of mass; select with that margin, then verify exactly.
    const double margin = 1.0 / static_cast<double>(bins_ - 1);
    for (const auto& f : finals_) {
      if (f.accuracy >= min_accuracy + margin && f.latency < best_latency) {
        best_latency = f.latency;
        best = &f;
      }
    }
    if (best == nullptr) {
      // Margin may have excluded everything; retry without it (repair below
      // restores exact feasibility).
      for (const auto& f : finals_) {
        if (f.accuracy >= min_accuracy && f.latency < best_latency) {
          best_latency = f.latency;
          best = &f;
        }
      }
    }
    if (best == nullptr) {
      ExitSettingResult r;
      r.evaluations = evaluations;
      return r;
    }
    ExitSettingResult r;
    // Materialize the winning label's decision chain from the arena. Steps
    // were appended in increasing candidate order, so reversing the parent
    // walk reproduces the depth-ordered trace the old per-label vectors
    // carried.
    for (std::int32_t id = best->step; id >= 0;
         id = steps_[static_cast<std::size_t>(id)].parent) {
      r.policy.exits.push_back(steps_[static_cast<std::size_t>(id)].choice);
    }
    std::reverse(r.policy.exits.begin(), r.policy.exits.end());
    r.stats = evaluate(r.policy);
    // Repair: if exact accuracy still misses the floor, drop the shallowest
    // (least accurate) exits until it holds.
    while (r.stats.expected_accuracy < min_accuracy - 1e-12 &&
           !r.policy.exits.empty()) {
      r.policy.exits.erase(r.policy.exits.begin());
      r.stats = evaluate(r.policy);
    }
    if (r.stats.expected_accuracy < min_accuracy - 1e-12) {
      r.evaluations = evaluations;
      return r;  // even the vanilla model misses the floor
    }
    r.expected_latency = policy_cost(candidates_, r.policy, r.stats, costs);
    polish(r, costs, evaluations, min_accuracy);
    r.feasible = true;
    r.evaluations = evaluations;
    return r;
  }

 private:
  struct Step {
    std::int32_t parent;
    ExitChoice choice;
  };

  double coverage_of_bin(std::size_t b) const {
    return static_cast<double>(b) / static_cast<double>(bins_ - 1);
  }
  std::size_t bin_of_coverage(double c) const {
    // Round to nearest: unbiased over the sweep (the final selection applies
    // a one-bin feasibility margin and the result is re-verified exactly).
    const auto b = static_cast<std::size_t>(
        std::floor(c * static_cast<double>(bins_ - 1) + 0.5));
    return std::min(b, bins_ - 1);
  }

  ExitStats evaluate(const ExitPolicy& policy) const {
    return evaluate_policy(candidates_, policy, acc_, opts_.difficulty);
  }

  // Local polish with exact evaluation: the coverage discretization biases
  // the DP toward conservative thetas; re-tuning each enabled exit's theta
  // (and trying removal) against the exact objective recovers most of the
  // residual gap at negligible cost.
  void polish(ExitSettingResult& r, const ExitCostTable& costs,
              std::size_t& evaluations, double min_accuracy) const {
    bool improved = true;
    for (int round = 0; round < 3 && improved; ++round) {
      improved = false;
      // Insertion moves: try enabling each unused candidate.
      if (r.policy.exits.size() < opts_.max_exits) {
        for (std::size_t c = 0; c < candidates_.size(); ++c) {
          const bool used = std::any_of(
              r.policy.exits.begin(), r.policy.exits.end(),
              [c](const ExitChoice& e) { return e.candidate == c; });
          if (used) continue;
          bool inserted = false;
          for (double theta : opts_.theta_grid) {
            ExitPolicy trial = r.policy;
            auto it = std::find_if(
                trial.exits.begin(), trial.exits.end(),
                [c](const ExitChoice& e) { return e.candidate > c; });
            trial.exits.insert(it, ExitChoice{c, theta});
            const auto stats = evaluate(trial);
            ++evaluations;
            if (stats.expected_accuracy < min_accuracy - 1e-12) continue;
            const double cost = policy_cost(candidates_, trial, stats, costs);
            if (cost < r.expected_latency - 1e-15) {
              r.policy = std::move(trial);
              r.stats = stats;
              r.expected_latency = cost;
              improved = true;
              inserted = true;
              break;  // candidate c is now enabled; theta tuning follows
            }
          }
          if (inserted && r.policy.exits.size() >= opts_.max_exits) break;
        }
      }
      for (std::size_t e = 0; e < r.policy.exits.size(); ++e) {
        // Theta re-tuning.
        for (double theta : opts_.theta_grid) {
          if (theta == r.policy.exits[e].theta) continue;
          ExitPolicy trial = r.policy;
          trial.exits[e].theta = theta;
          const auto stats = evaluate(trial);
          ++evaluations;
          if (stats.expected_accuracy < min_accuracy - 1e-12) continue;
          const double cost = policy_cost(candidates_, trial, stats, costs);
          if (cost < r.expected_latency - 1e-15) {
            r.policy = std::move(trial);
            r.stats = stats;
            r.expected_latency = cost;
            improved = true;
          }
        }
        // Removal.
        {
          ExitPolicy trial = r.policy;
          trial.exits.erase(trial.exits.begin() +
                            static_cast<std::ptrdiff_t>(e));
          const auto stats = evaluate(trial);
          ++evaluations;
          if (stats.expected_accuracy >= min_accuracy - 1e-12) {
            const double cost = policy_cost(candidates_, trial, stats, costs);
            if (cost < r.expected_latency - 1e-15) {
              r.policy = std::move(trial);
              r.stats = stats;
              r.expected_latency = cost;
              improved = true;
              if (r.policy.exits.empty()) break;
            }
          }
        }
      }
    }
  }

  const std::vector<ExitCandidate>& candidates_;
  const AccuracyModel& acc_;
  const ExitSettingOptions& opts_;
  const std::size_t bins_;
  const std::size_t thetas_;
  std::vector<Step> steps_;
  Frontier next_;  // advance()'s output buffer, reused across candidates
  std::vector<Label> finals_;
  std::vector<double> bin_cdf_;
  std::vector<double> bin_reach_;
  std::vector<double> theta_limit_;      // [candidate * thetas + theta]
  std::vector<double> theta_limit_cdf_;  // [candidate * thetas + theta]
  std::vector<double> theta_correct_;    // [candidate * thetas + theta]
  // advance()'s firing mass and target bin per theta from the current bin.
  std::vector<double> fire_;
  std::vector<std::size_t> fire_bin_;
};

// Bit equality of a[0, k) and b[0, k) (unlike ==, tells -0.0 from 0.0).
bool same_bits(const std::vector<double>& a, const std::vector<double>& b,
               std::size_t k) {
  return std::equal(a.begin(), a.begin() + static_cast<std::ptrdiff_t>(k),
                    b.begin(), [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

// A table the DP can price with: the right arity, and every price finite,
// since an infinite one times a zero reach makes a NaN latency, which the
// latency-sorted Pareto sets cannot order.
void require_priceable(const ExitCostTable& t, std::size_t n) {
  SCALPEL_REQUIRE(t.segment.size() == n && t.head.size() == n,
                  "cost table arity mismatch");
  const auto finite = [](double v) { return std::isfinite(v); };
  SCALPEL_REQUIRE(std::all_of(t.segment.begin(), t.segment.end(), finite) &&
                      std::all_of(t.head.begin(), t.head.end(), finite) &&
                      std::isfinite(t.tail),
                  "cost table prices must be finite");
}

// The one DP driver behind every entry point: advances a frontier under
// `shared`, forks a copy at each prefix[j] that runs on under forks[j] (see
// dp_exit_setting_forked), and finishes every table at every floor. Returns
// (forks.size() + 1) * floors.size() results, table-major: [t *
// floors.size() + f] is table t (0 = `shared`, j + 1 = forks[j]) at
// floors[f]. Each table's frontier labels go to its first floor's result.
std::vector<ExitSettingResult> run_dp(
    const std::vector<ExitCandidate>& candidates, const AccuracyModel& acc,
    const ExitCostTable& shared, const std::vector<ExitCostTable>& forks,
    const std::vector<std::size_t>& prefix, const ExitSettingOptions& opts,
    const std::vector<double>& floors) {
  SCALPEL_REQUIRE(opts.coverage_bins >= 2, "DP needs >= 2 coverage bins");
  SCALPEL_REQUIRE(!floors.empty(), "the DP needs at least one floor");
  const std::size_t n = candidates.size();
  require_priceable(shared, n);
  SCALPEL_REQUIRE(forks.size() == prefix.size(),
                  "one prefix length per forked table");
  for (std::size_t j = 0; j < forks.size(); ++j) {
    const ExitCostTable& t = forks[j];
    require_priceable(t, n);
    SCALPEL_REQUIRE(prefix[j] <= n, "fork prefix longer than the candidates");
    SCALPEL_REQUIRE(same_bits(t.segment, shared.segment, prefix[j]) &&
                        same_bits(t.head, shared.head, prefix[j]),
                    "forked table differs from the shared one in its prefix");
  }

  // Forks leave the shared run in order of prefix length; each runs to the
  // end before the shared run moves on, so its decision steps can be
  // appended to the shared arena and dropped afterwards.
  std::vector<std::size_t> order(forks.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return prefix[a] < prefix[b];
                   });

  ExitDp dp(candidates, acc, opts);
  std::vector<ExitSettingResult> results((forks.size() + 1) * floors.size());
  const auto finish = [&](const ExitDp::Frontier& frontier,
                          const ExitCostTable& costs, std::size_t table,
                          std::size_t evaluations, std::size_t labels) {
    for (std::size_t f = 0; f < floors.size(); ++f) {
      results[table * floors.size() + f] =
          dp.finish(frontier, costs, evaluations, floors[f]);
    }
    results[table * floors.size()].labels = labels;
  };
  ExitDp::Frontier frontier = dp.start();
  ExitDp::Frontier forked;
  std::size_t evaluations = 0;
  std::size_t labels = 0;
  std::size_t next_fork = 0;
  for (std::size_t k = 0;; ++k) {
    for (; next_fork < order.size() && prefix[order[next_fork]] == k;
         ++next_fork) {
      const std::size_t j = order[next_fork];
      const std::size_t mark = dp.steps();
      forked = frontier;
      std::size_t fork_evaluations = evaluations;
      std::size_t fork_labels = 0;
      for (std::size_t i = k; i < n; ++i) {
        dp.advance(forked, i, forks[j], fork_evaluations, fork_labels);
      }
      finish(forked, forks[j], j + 1, fork_evaluations, fork_labels);
      dp.truncate_steps(mark);
    }
    if (k == n) break;
    dp.advance(frontier, k, shared, evaluations, labels);
  }
  finish(frontier, shared, 0, evaluations, labels);
  return results;
}

}  // namespace

std::vector<ExitSettingResult> dp_exit_setting_forked(
    const std::vector<ExitCandidate>& candidates, const AccuracyModel& acc,
    const ExitCostTable& shared, const std::vector<ExitCostTable>& forks,
    const std::vector<std::size_t>& prefix, const ExitSettingOptions& opts) {
  return run_dp(candidates, acc, shared, forks, prefix, opts,
                {opts.min_accuracy});
}

ExitSettingResult dp_exit_setting(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts) {
  return dp_exit_setting_floors(backbone, candidates, acc, profile, opts,
                                {opts.min_accuracy})
      .front();
}

std::vector<ExitSettingResult> dp_exit_setting_floors(
    const Graph& backbone, const std::vector<ExitCandidate>& candidates,
    const AccuracyModel& acc, const ComputeProfile& profile,
    const ExitSettingOptions& opts, const std::vector<double>& floors) {
  const ProfileCosts device = profile_costs(backbone, candidates, profile);
  return run_dp(candidates, acc,
                build_cost_table(backbone, candidates, -1, 0.0, device, device),
                {}, {}, opts, floors);
}

}  // namespace scalpel
