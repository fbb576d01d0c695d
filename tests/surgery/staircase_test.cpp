// The exit-setting DP's Pareto insert (staircase_insert) against the linear
// scan it replaced (linear_pareto_insert): fed the same stream of points,
// both must accept the same points and hold the same set after every insert,
// and the staircase must stay strictly increasing in both coordinates.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "oracles/oracles.hpp"
#include "surgery/exit_setting.hpp"
#include "util/rng.hpp"

namespace scalpel {
namespace {

struct Point {
  double accuracy;
  double latency;
  int id;  // tells exact duplicates apart
};

auto key(const Point& p) { return std::tie(p.latency, p.accuracy, p.id); }

std::vector<Point> sorted_by_latency(std::vector<Point> set) {
  std::sort(set.begin(), set.end(),
            [](const Point& a, const Point& b) { return key(a) < key(b); });
  return set;
}

// Offsets around the 1e-12 dominance tolerance.
double near_tie(Rng& rng) {
  constexpr double kOffsets[] = {0.0,    0.5e-12, -0.5e-12, 1e-12,
                                 -1e-12, 2e-12,   -2e-12};
  return kOffsets[rng.uniform_int(0, 6)];
}

struct Regime {
  const char* name;
  double scale;         // magnitude of the coordinates
  int latency_levels;   // distinct base latencies (1 = all equal)
  int accuracy_levels;  // distinct base accuracies
};

// Draws `count` points: coarse base levels so ties are common, near-tie
// offsets around the tolerance, and one in eight an exact copy of an
// earlier point.
std::vector<Point> stream(Rng& rng, const Regime& r, int count) {
  std::vector<Point> out;
  for (int i = 0; i < count; ++i) {
    if (!out.empty() && rng.uniform_int(0, 7) == 0) {
      Point copy = out[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(out.size()) - 1))];
      copy.id = i;
      out.push_back(copy);
      continue;
    }
    const double lat_base =
        r.scale * static_cast<double>(rng.uniform_int(0, r.latency_levels - 1));
    const double acc_base =
        static_cast<double>(rng.uniform_int(0, r.accuracy_levels - 1)) /
        static_cast<double>(r.accuracy_levels);
    out.push_back(
        Point{acc_base + near_tie(rng), lat_base + near_tie(rng), i});
  }
  return out;
}

TEST(StaircaseInsert, MatchesLinearScanAfterEveryInsert) {
  const Regime regimes[] = {
      {"mixed", 0.1, 12, 12},
      // Latencies near 1e4, where the tolerance is below one ulp.
      {"large latencies", 2e3, 6, 12},
      // The top coverage bin has zero reach: every transition into it adds
      // nothing to the latency, so its labels share one latency.
      {"equal latencies", 0.3, 1, 8},
      {"equal accuracies", 0.05, 10, 1},
  };
  Rng rng(27);
  for (const Regime& r : regimes) {
    for (int s = 0; s < 300; ++s) {
      std::vector<Point> linear;
      std::vector<Point> staircase;
      for (const Point& p : stream(rng, r, 40)) {
        const std::string where = std::string(r.name) + " stream " +
                                  std::to_string(s) + " point " +
                                  std::to_string(p.id);
        ASSERT_EQ(staircase_insert(staircase, p),
                  linear_pareto_insert(linear, p))
            << where;
        const std::vector<Point> want = sorted_by_latency(linear);
        ASSERT_EQ(staircase.size(), want.size()) << where;
        for (std::size_t k = 0; k < want.size(); ++k) {
          ASSERT_EQ(key(staircase[k]), key(want[k])) << where;
        }
        for (std::size_t k = 1; k < staircase.size(); ++k) {
          ASSERT_LT(staircase[k - 1].latency, staircase[k].latency) << where;
          ASSERT_LT(staircase[k - 1].accuracy, staircase[k].accuracy)
              << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace scalpel
