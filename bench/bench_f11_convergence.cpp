// F11 — Distributed offloading: best-response convergence speed and
// optimality gap. Random offloading games of growing size; rounds to a Nash
// point, social cost vs greedy, and (small instances) vs the exact optimum.

#include "bench_common.hpp"
#include "oracles/oracles.hpp"
#include "sched/offloading.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace scalpel;

namespace {

OffloadingProblem random_problem(std::size_t n, std::size_t m, Rng& rng) {
  OffloadingProblem p;
  for (std::size_t i = 0; i < n; ++i) {
    p.rate.push_back(rng.uniform(0.5, 2.0));
    std::vector<double> base;
    std::vector<double> work;
    for (std::size_t j = 0; j < m; ++j) {
      base.push_back(rng.uniform(0.005, 0.05));
      work.push_back(rng.uniform(0.01, 0.25 / static_cast<double>(n) * 4.0));
    }
    p.base_latency.push_back(std::move(base));
    p.work.push_back(std::move(work));
  }
  return p;
}

}  // namespace

int main() {
  bench::banner("F11", "Best-response offloading: convergence + gap");
  Table t({"devices", "servers", "avg rounds", "max rounds", "BR/greedy",
           "BR/optimal (n<=6)"});
  Rng rng(41);
  for (const auto& [n, m] : std::vector<std::pair<std::size_t, std::size_t>>{
           {4, 2}, {6, 2}, {8, 3}, {16, 4}, {32, 6}, {64, 8}}) {
    Samples rounds;
    Samples vs_greedy;
    Samples vs_opt;
    std::size_t max_rounds = 0;
    for (int trial = 0; trial < 10; ++trial) {
      const auto p = random_problem(n, m, rng);
      const auto gr = greedy_offloading(p);
      const auto br = best_response_offloading(p);
      if (!br.feasible || !gr.feasible) continue;
      rounds.add(static_cast<double>(br.iterations));
      max_rounds = std::max(max_rounds, br.iterations);
      vs_greedy.add(br.social_cost / gr.social_cost);
      if (n <= 6) {
        const auto opt = exhaustive_offloading(p);
        if (opt.feasible) vs_opt.add(br.social_cost / opt.social_cost);
      }
    }
    t.add_row({Table::num(static_cast<std::int64_t>(n)),
               Table::num(static_cast<std::int64_t>(m)),
               rounds.empty() ? "-" : Table::num(rounds.mean(), 1),
               Table::num(static_cast<std::int64_t>(max_rounds)),
               vs_greedy.empty() ? "-" : Table::num(vs_greedy.mean(), 3),
               vs_opt.empty() ? "-" : Table::num(vs_opt.mean(), 3)});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("Expected shape: convergence in a handful of rounds,\n"
              "BR <= greedy, and within a few percent of optimal where the\n"
              "optimum is computable.\n");
  return 0;
}
