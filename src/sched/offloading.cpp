#include "sched/offloading.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "sched/queueing.hpp"
#include "util/assert.hpp"

namespace scalpel {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
/// Best-response round budget.
constexpr std::size_t kMaxRounds = 100;
/// A device moves only if its own latency improves by this factor.
constexpr double kImprovementEps = 1e-6;
}  // namespace

void OffloadingProblem::validate() const {
  SCALPEL_REQUIRE(!rate.empty(), "offloading problem has no devices");
  SCALPEL_REQUIRE(base_latency.size() == rate.size() &&
                      work.size() == rate.size(),
                  "offloading problem arity mismatch");
  const std::size_t m = num_servers();
  SCALPEL_REQUIRE(m > 0, "offloading problem has no servers");
  for (std::size_t i = 0; i < rate.size(); ++i) {
    SCALPEL_REQUIRE(rate[i] > 0.0, "offloaded rates must be positive");
    SCALPEL_REQUIRE(base_latency[i].size() == m && work[i].size() == m,
                    "offloading problem row arity mismatch");
    for (std::size_t j = 0; j < m; ++j) {
      SCALPEL_REQUIRE(work[i][j] > 0.0, "server work must be positive");
    }
  }
}

double evaluate_assignment(const OffloadingProblem& p,
                           const std::vector<int>& server_of,
                           std::vector<double>* per_device_latency) {
  SCALPEL_REQUIRE(server_of.size() == p.num_devices(),
                  "assignment arity mismatch");
  const std::size_t n = p.num_devices();
  const std::size_t m = p.num_servers();
  if (per_device_latency) per_device_latency->assign(n, kInf);

  double weighted = 0.0;
  double total_rate = 0.0;
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < n; ++i) {
      if (server_of[i] == static_cast<int>(j)) members.push_back(i);
    }
    if (members.empty()) continue;
    std::vector<double> lambda;
    std::vector<double> work;
    for (std::size_t i : members) {
      if (!std::isfinite(p.base_latency[i][j])) return kInf;
      lambda.push_back(p.rate[i]);
      work.push_back(p.work[i][j]);
    }
    const auto split = queueing::kleinrock(lambda, work, 1.0);
    if (split.empty()) return kInf;  // unstable server
    for (std::size_t k = 0; k < members.size(); ++k) {
      const std::size_t i = members[k];
      const double mu = split[k] / work[k];
      const double sojourn = queueing::mm1_sojourn(lambda[k], mu);
      if (!std::isfinite(sojourn)) return kInf;
      const double latency = p.base_latency[i][j] + sojourn;
      if (per_device_latency) (*per_device_latency)[i] = latency;
      weighted += p.rate[i] * latency;
      total_rate += p.rate[i];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (server_of[i] < 0 || server_of[i] >= static_cast<int>(m)) return kInf;
  }
  return total_rate > 0.0 ? weighted / total_rate : 0.0;
}

namespace {

OffloadingSolution finalize(const OffloadingProblem& p, std::vector<int> assign,
                            std::size_t iterations, bool converged) {
  OffloadingSolution s;
  s.server_of = std::move(assign);
  s.social_cost = evaluate_assignment(p, s.server_of, &s.latency);
  s.iterations = iterations;
  s.converged = converged;
  s.feasible = std::isfinite(s.social_cost);
  return s;
}

}  // namespace

OffloadingSolution greedy_offloading(const OffloadingProblem& p) {
  p.validate();
  const std::size_t n = p.num_devices();
  const std::size_t m = p.num_servers();

  // Place heavy hitters first so they land on the least-loaded servers.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return p.rate[a] * p.work[a][0] > p.rate[b] * p.work[b][0];
  });

  std::vector<int> assign(n, -1);
  std::vector<double> load(m, 0.0);  // committed utilization
  for (std::size_t i : order) {
    double best_cost = kInf;
    int best_j = -1;
    for (std::size_t j = 0; j < m; ++j) {
      if (!std::isfinite(p.base_latency[i][j])) continue;
      const double demand = p.rate[i] * p.work[i][j];
      if (load[j] + demand >= 1.0) continue;
      // Myopic score: base latency + single-class sojourn on the spare.
      const double mu = (1.0 - load[j]) / p.work[i][j];
      const double cost =
          p.base_latency[i][j] + queueing::mm1_sojourn(p.rate[i], mu);
      if (cost < best_cost) {
        best_cost = cost;
        best_j = static_cast<int>(j);
      }
    }
    if (best_j < 0) {
      // No stable placement: dump on the least-loaded server so the
      // evaluator reports infeasibility coherently.
      best_j = static_cast<int>(std::min_element(load.begin(), load.end()) -
                                load.begin());
    }
    assign[i] = best_j;
    load[static_cast<std::size_t>(best_j)] +=
        p.rate[i] * p.work[i][static_cast<std::size_t>(best_j)];
  }
  return finalize(p, std::move(assign), 0, true);
}

OffloadingSolution best_response_offloading(const OffloadingProblem& p) {
  OffloadingSolution current = greedy_offloading(p);
  const std::size_t n = p.num_devices();
  const std::size_t m = p.num_servers();

  std::size_t round = 0;
  bool converged = false;
  for (; round < kMaxRounds; ++round) {
    bool moved = false;
    for (std::size_t i = 0; i < n; ++i) {
      std::vector<double> latency;
      evaluate_assignment(p, current.server_of, &latency);
      const double own = latency[i];
      int best_j = current.server_of[i];
      double best_latency = own;
      for (std::size_t j = 0; j < m; ++j) {
        if (static_cast<int>(j) == current.server_of[i]) continue;
        std::vector<int> trial = current.server_of;
        trial[i] = static_cast<int>(j);
        std::vector<double> trial_latency;
        const double cost = evaluate_assignment(p, trial, &trial_latency);
        if (!std::isfinite(cost)) continue;
        if (trial_latency[i] < best_latency * (1.0 - kImprovementEps)) {
          best_latency = trial_latency[i];
          best_j = static_cast<int>(j);
        }
      }
      if (best_j != current.server_of[i]) {
        current.server_of[i] = best_j;
        moved = true;
      }
    }
    if (!moved) {
      converged = true;
      break;
    }
  }
  return finalize(p, std::move(current.server_of), round, converged);
}

std::vector<double> kleinrock_shares(const OffloadingProblem& p,
                                     const std::vector<int>& server_of) {
  SCALPEL_REQUIRE(server_of.size() == p.num_devices(),
                  "assignment arity mismatch");
  const std::size_t n = p.num_devices();
  const std::size_t m = p.num_servers();
  std::vector<double> out(n, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    std::vector<std::size_t> members;
    for (std::size_t i = 0; i < n; ++i) {
      if (server_of[i] == static_cast<int>(j)) members.push_back(i);
    }
    if (members.empty()) continue;
    std::vector<double> lambda;
    std::vector<double> work;
    for (std::size_t i : members) {
      lambda.push_back(p.rate[i]);
      work.push_back(p.work[i][j]);
    }
    const auto split = queueing::kleinrock(lambda, work, 1.0);
    if (split.empty()) continue;  // overloaded: members keep share 0
    for (std::size_t k = 0; k < members.size(); ++k) {
      out[members[k]] = split[k];
    }
  }
  return out;
}

}  // namespace scalpel
