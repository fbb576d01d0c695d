// F3 — Exit-setting algorithms: the accuracy-latency frontier and the cost
// of computing it. Sweeps the accuracy floor and compares the coverage-DP
// (the paper-style algorithm), greedy, and exhaustive search on expected
// latency and configurations examined.

#include "bench_common.hpp"
#include "nn/models.hpp"
#include "oracles/oracles.hpp"
#include "surgery/exit_setting.hpp"

using namespace scalpel;

int main() {
  bench::banner("F3", "Exit setting: accuracy-latency frontier + algo cost");
  const auto g = models::mobilenet_v1();
  ExitCandidateOptions copts;
  copts.num_classes = 1000;
  copts.min_spacing = 0.04;
  const auto cands = find_exit_candidates(g, copts);
  const auto acc = AccuracyModel::for_model("mobilenet_v1");
  const auto device = profiles::raspberry_pi4();
  std::printf("model mobilenet_v1 (%zu exit candidates), device %s, "
              "a_max=%.3f\n\n",
              cands.size(), device.name.c_str(), acc.a_max);

  ExitSettingOptions base;
  base.theta_grid = {0.0, 0.15, 0.30, 0.45, 0.60};
  base.max_exits = 3;

  Table t({"A_min", "DP ms", "DP exits", "DP acc", "greedy ms", "greedy acc",
           "exhaustive ms", "DP evals", "greedy evals", "exh. evals"});
  for (double floor : {0.0, 0.55, 0.60, 0.63, 0.66, 0.68, 0.70}) {
    ExitSettingOptions opts = base;
    opts.min_accuracy = floor;
    const auto dp = dp_exit_setting(g, cands, acc, device, opts);
    const auto gr = greedy_exit_setting(g, cands, acc, device, opts);
    const auto ex = exhaustive_exit_setting(g, cands, acc, device, opts);
    auto ms_or = [](const ExitSettingResult& r) {
      return r.feasible ? bench::fmt_ms(r.expected_latency)
                        : std::string("infeasible");
    };
    t.add_row({Table::num(floor, 2), ms_or(dp),
               Table::num(static_cast<std::int64_t>(dp.policy.exits.size())),
               dp.feasible ? Table::num(dp.stats.expected_accuracy, 3) : "-",
               ms_or(gr),
               gr.feasible ? Table::num(gr.stats.expected_accuracy, 3) : "-",
               ms_or(ex),
               Table::num(static_cast<std::int64_t>(dp.evaluations)),
               Table::num(static_cast<std::int64_t>(gr.evaluations)),
               Table::num(static_cast<std::int64_t>(ex.evaluations))});
  }
  std::printf("%s\n", t.to_string().c_str());
  std::printf("Expected shape: latency rises as the floor tightens; the DP\n"
              "tracks exhaustive closely at a fraction of the evaluations.\n");
  return 0;
}
