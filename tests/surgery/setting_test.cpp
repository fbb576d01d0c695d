#include "surgery/exit_setting.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>

#include "nn/models.hpp"
#include "oracles/oracles.hpp"
#include "profile/compute_profile.hpp"
#include "profile/latency_model.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scalpel {
namespace {

struct Fixture {
  Graph g;
  std::vector<ExitCandidate> cands;
  AccuracyModel acc;
  ComputeProfile profile = profiles::raspberry_pi4();

  explicit Fixture(const std::string& model = "tiny_cnn",
                   std::size_t max_cands = 4) {
    g = models::by_name(model);
    acc = AccuracyModel::for_model(model);
    ExitCandidateOptions opts;
    opts.num_classes = 10;
    opts.min_spacing = 0.0;
    // Candidates come in depth order, so truncation keeps the shallowest.
    cands = find_exit_candidates(g, opts);
    if (cands.size() > max_cands) cands.resize(max_cands);
  }

  // The device-only table dp_exit_setting prices with.
  ExitCostTable device_table() const {
    const ProfileCosts costs = profile_costs(g, cands, profile);
    return build_cost_table(g, cands, -1, 0.0, costs, costs);
  }
};

ExitSettingOptions small_opts(double min_accuracy) {
  ExitSettingOptions o;
  o.min_accuracy = min_accuracy;
  o.theta_grid = {0.0, 0.3, 0.6};
  o.max_exits = 3;
  o.coverage_bins = 200;
  return o;
}

TEST(ExitSetting, ExhaustiveFindsFeasibleImprovement) {
  Fixture f;
  const auto opts = small_opts(0.70);
  const auto r = exhaustive_exit_setting(f.g, f.cands, f.acc, f.profile, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.stats.expected_accuracy, opts.min_accuracy - 1e-9);
  // Exits must help on a compute-bound device.
  const auto vanilla = evaluate_policy(f.cands, {}, f.acc);
  const double vanilla_latency =
      policy_cost(f.cands, {}, vanilla, f.device_table());
  EXPECT_LE(r.expected_latency, vanilla_latency + 1e-12);
}

TEST(ExitSetting, DpMatchesExhaustiveWithinTolerance) {
  for (const char* model : {"tiny_cnn", "lenet5"}) {
    Fixture f(model);
    for (double floor : {0.0, 0.60, 0.75}) {
      const auto opts = small_opts(floor);
      const auto ex =
          exhaustive_exit_setting(f.g, f.cands, f.acc, f.profile, opts);
      const auto dp = dp_exit_setting(f.g, f.cands, f.acc, f.profile, opts);
      ASSERT_EQ(ex.feasible, dp.feasible) << model << " floor " << floor;
      if (!ex.feasible) continue;
      // DP is near-optimal up to coverage discretization.
      EXPECT_LE(dp.expected_latency, ex.expected_latency * 1.05 + 1e-9)
          << model << " floor " << floor;
      EXPECT_GE(dp.stats.expected_accuracy, floor - 1e-9);
    }
  }
}

TEST(ExitSetting, GreedyIsFeasibleAndNeverWorseThanVanilla) {
  Fixture f("tiny_cnn", 6);
  const auto opts = small_opts(0.70);
  const auto r = greedy_exit_setting(f.g, f.cands, f.acc, f.profile, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_GE(r.stats.expected_accuracy, opts.min_accuracy - 1e-9);
  const auto vanilla = evaluate_policy(f.cands, {}, f.acc);
  EXPECT_LE(r.expected_latency,
            policy_cost(f.cands, {}, vanilla, f.device_table()) + 1e-12);
}

TEST(ExitSetting, GreedyNeverBeatsExhaustive) {
  Fixture f;
  const auto opts = small_opts(0.65);
  const auto ex = exhaustive_exit_setting(f.g, f.cands, f.acc, f.profile, opts);
  const auto gr = greedy_exit_setting(f.g, f.cands, f.acc, f.profile, opts);
  ASSERT_TRUE(ex.feasible && gr.feasible);
  EXPECT_GE(gr.expected_latency, ex.expected_latency - 1e-12);
}

TEST(ExitSetting, InfeasibleFloorReported) {
  Fixture f;
  // tiny_cnn a_max = 0.80; a floor above it is unsatisfiable.
  const auto opts = small_opts(0.90);
  EXPECT_FALSE(
      exhaustive_exit_setting(f.g, f.cands, f.acc, f.profile, opts).feasible);
  EXPECT_FALSE(
      dp_exit_setting(f.g, f.cands, f.acc, f.profile, opts).feasible);
  EXPECT_FALSE(
      greedy_exit_setting(f.g, f.cands, f.acc, f.profile, opts).feasible);
}

TEST(ExitSetting, TighterFloorCostsLatency) {
  Fixture f;
  const auto loose = dp_exit_setting(f.g, f.cands, f.acc, f.profile,
                                     small_opts(0.0));
  const auto tight = dp_exit_setting(f.g, f.cands, f.acc, f.profile,
                                     small_opts(0.78));
  ASSERT_TRUE(loose.feasible && tight.feasible);
  EXPECT_LE(loose.expected_latency, tight.expected_latency + 1e-12);
}

TEST(ExitSetting, MaxExitsHonored) {
  Fixture f("tiny_cnn", 6);
  auto opts = small_opts(0.0);
  opts.max_exits = 1;
  const auto r = dp_exit_setting(f.g, f.cands, f.acc, f.profile, opts);
  ASSERT_TRUE(r.feasible);
  EXPECT_LE(r.policy.exits.size(), 1u);
}

TEST(ExitSetting, DpScalesBetterThanExhaustive) {
  Fixture f("mobilenet_v1", 8);
  ASSERT_GE(f.cands.size(), 6u);
  // In the regime the DP targets (several exits, fine threshold grid) the
  // exhaustive subset x grid enumeration is combinatorial while the DP stays
  // ~linear in candidates x bins.
  ExitSettingOptions opts;
  opts.min_accuracy = 0.60;
  opts.theta_grid = {0.0, 0.15, 0.30, 0.45, 0.60};
  opts.max_exits = 4;
  opts.coverage_bins = 80;
  const auto dp = dp_exit_setting(f.g, f.cands, f.acc, f.profile, opts);
  const auto ex = exhaustive_exit_setting(f.g, f.cands, f.acc, f.profile,
                                          opts);
  ASSERT_TRUE(dp.feasible);
  ASSERT_TRUE(ex.feasible);
  EXPECT_LT(dp.evaluations, ex.evaluations);
  // And it stays near-optimal.
  EXPECT_LE(dp.expected_latency, ex.expected_latency * 1.05 + 1e-9);
}

// The generalized DP run from scratch on one table: no forks.
ExitSettingResult dp_on_table(const Fixture& f, const ExitCostTable& costs,
                              const ExitSettingOptions& opts) {
  return dp_exit_setting_forked(f.cands, f.acc, costs, {}, {}, opts)
      .front();
}

TEST(ExitSetting, CostTableDpHandlesUniformCosts) {
  Fixture f;
  ExitCostTable costs;
  costs.segment.assign(f.cands.size(), 1.0);
  costs.head.assign(f.cands.size(), 0.1);
  costs.tail = 1.0;
  const auto opts = small_opts(0.0);
  const auto r = dp_on_table(f, costs, opts);
  ASSERT_TRUE(r.feasible);
  // With exits nearly free and no accuracy floor, enabling exits must beat
  // running everything.
  const double no_exit_cost =
      static_cast<double>(f.cands.size()) * 1.0 + 1.0;
  EXPECT_LT(r.expected_latency, no_exit_cost);
}

TEST(ExitSetting, PolicyCostAgreesWithStatsIntegration) {
  Fixture f;
  ExitCostTable costs;
  costs.segment.assign(f.cands.size(), 2.0);
  costs.head.assign(f.cands.size(), 0.5);
  costs.tail = 3.0;
  ExitPolicy p;
  p.exits = {{0, 0.2}};
  if (f.cands.size() > 2) p.exits.push_back({2, 0.4});
  const auto stats = evaluate_policy(f.cands, p, f.acc);
  // Manual: every candidate segment paid by reach at that point.
  double manual = 0.0;
  double reach = 1.0;
  std::size_t next = 0;
  for (std::size_t c = 0; c < f.cands.size(); ++c) {
    manual += reach * 2.0;
    if (next < p.exits.size() && p.exits[next].candidate == c) {
      manual += reach * 0.5;
      reach -= stats.fire_prob[next];
      ++next;
    }
  }
  manual += reach * 3.0;
  EXPECT_NEAR(policy_cost(f.cands, p, stats, costs), manual, 1e-12);
}

// A cut's table prices the candidates at or before the cut exactly as the
// device-only table does (the prefix the forked DP shares), charges the
// upload once, on the first stretch past the cut, and prices everything
// after it on the server.
TEST(CostTable, CutTableSplitsAtTheCutAndChargesUploadOnce) {
  const Fixture f("tiny_cnn", 6);
  ASSERT_GE(f.cands.size(), 3u);
  const ProfileCosts device = profile_costs(f.g, f.cands, f.profile);
  const ProfileCosts server =
      profile_costs(f.g, f.cands, profiles::edge_gpu_t4());
  const ExitCostTable local = f.device_table();
  const NodeId cut = f.cands[1].attach;
  const double upload = 0.25;
  const ExitCostTable t =
      build_cost_table(f.g, f.cands, cut, upload, device, server);
  double total = t.tail;
  for (std::size_t i = 0; i < f.cands.size(); ++i) {
    total += t.segment[i];
    if (i <= 1) {
      EXPECT_EQ(t.segment[i], local.segment[i]) << i;
      EXPECT_EQ(t.head[i], local.head[i]) << i;
    } else {
      EXPECT_EQ(t.head[i], server.head[i]) << i;
    }
  }
  EXPECT_NEAR(total,
              device.range(0, cut) + upload + server.range(cut, f.g.output()),
              1e-12);
  // The device-only table tiles the whole graph on the device.
  double local_total = local.tail;
  for (const double v : local.segment) local_total += v;
  EXPECT_NEAR(local_total, LatencyModel::graph_latency(f.g, f.profile) -
                               device.layer[0],
              1e-12);
}

ExitCostTable random_table(Rng& rng, std::size_t n) {
  ExitCostTable t;
  for (std::size_t i = 0; i < n; ++i) {
    t.segment.push_back(rng.uniform(0.1, 2.0));
    t.head.push_back(rng.uniform(0.0, 0.5));
  }
  t.tail = rng.uniform(0.1, 2.0);
  return t;
}

void expect_same(const ExitSettingResult& got, const ExitSettingResult& want,
                 const std::string& where) {
  EXPECT_EQ(got.policy, want.policy) << where;
  EXPECT_EQ(got.stats.fire_prob, want.stats.fire_prob) << where;
  EXPECT_EQ(got.stats.final_prob, want.stats.final_prob) << where;
  EXPECT_EQ(got.stats.expected_accuracy, want.stats.expected_accuracy)
      << where;
  EXPECT_EQ(got.expected_latency, want.expected_latency) << where;
  EXPECT_EQ(got.feasible, want.feasible) << where;
  EXPECT_EQ(got.evaluations, want.evaluations) << where;
}

// Every result forked off a shared prefix must equal the DP run from scratch
// on its own table, for every prefix length, with forks given out of prefix
// order and two forks at the same prefix.
TEST(ExitSettingFork, ForkedRunsEqualRunsFromScratch) {
  Rng rng(20);
  for (const auto& model : models::zoo_names()) {
    const Fixture f(model, 6);
    const std::size_t n = f.cands.size();
    // Four coverage bins overstate exit accuracy by up to a bin of mass, so
    // the DP's pick often misses the floor when checked exactly and the
    // repair path runs; floors at and above the vanilla accuracy force it.
    for (const double floor : {0.0, 0.6, f.acc.a_max, f.acc.a_max + 0.01}) {
      ExitSettingOptions opts = small_opts(floor);
      opts.coverage_bins = 4;
      const ExitCostTable shared = random_table(rng, n);
      std::vector<ExitCostTable> forks;
      std::vector<std::size_t> prefix;
      for (std::size_t k = n + 1; k-- > 0;) {
        ExitCostTable t = random_table(rng, n);
        std::copy_n(shared.segment.begin(), k, t.segment.begin());
        std::copy_n(shared.head.begin(), k, t.head.begin());
        forks.push_back(std::move(t));
        prefix.push_back(k);
      }
      forks.push_back(forks.back());
      prefix.push_back(prefix.back());
      forks.back().tail += 1.0;

      const auto got = dp_exit_setting_forked(f.cands, f.acc, shared,
                                              forks, prefix, opts);
      ASSERT_EQ(got.size(), forks.size() + 1);
      const std::string where = model + " floor " + std::to_string(floor);
      const auto shared_scratch = dp_on_table(f, shared, opts);
      expect_same(got[0], shared_scratch, where + " shared");
      EXPECT_EQ(got[0].labels, shared_scratch.labels) << where;
      for (std::size_t j = 0; j < forks.size(); ++j) {
        const auto scratch = dp_on_table(f, forks[j], opts);
        expect_same(got[j + 1], scratch,
                    where + " prefix " + std::to_string(prefix[j]));
        // A fork counts only the labels it folded past its prefix: all of
        // them when it forks at 0, none when it forks after the last step.
        if (prefix[j] == 0) {
          EXPECT_EQ(got[j + 1].labels, scratch.labels);
        }
        if (prefix[j] == n) {
          EXPECT_EQ(got[j + 1].labels, 0u);
        }
        EXPECT_LE(got[j + 1].labels, scratch.labels);
      }
    }
  }
}

// One frontier finished at several floors must give, at each floor, exactly
// the run from scratch at that floor: every zoo model, three difficulty
// shapes, floors out of order with 0, a repeat and one no setting meets.
// Four coverage bins make the repair path run (see above); sixty is the
// joint optimizer's resolution.
TEST(ExitSettingFloors, EachFloorEqualsItsOwnRun) {
  for (const auto& model : models::zoo_names()) {
    const Fixture f(model, 6);
    const std::vector<double> floors = {0.6, 0.0, f.acc.a_max - 0.05,
                                        1.01, f.acc.a_max, 0.6};
    for (const char* shape : {"uniform", "hard_heavy", "bimodal_easy"}) {
      for (const std::size_t bins : {4u, 60u}) {
        ExitSettingOptions opts = small_opts(0.0);
        opts.coverage_bins = bins;
        opts.difficulty = DifficultyModel::preset(shape);
        const auto got = dp_exit_setting_floors(f.g, f.cands, f.acc,
                                                f.profile, opts, floors);
        ASSERT_EQ(got.size(), floors.size());
        for (std::size_t j = 0; j < floors.size(); ++j) {
          opts.min_accuracy = floors[j];
          const auto scratch =
              dp_exit_setting(f.g, f.cands, f.acc, f.profile, opts);
          const std::string where = model + " " + shape + " bins " +
                                    std::to_string(bins) + " floor " +
                                    std::to_string(floors[j]);
          expect_same(got[j], scratch, where);
          // The shared frontier's labels are counted once, on the first.
          EXPECT_EQ(got[j].labels, j == 0 ? scratch.labels : 0u) << where;
        }
        EXPECT_FALSE(got[3].feasible) << model << " " << shape;
      }
    }
  }
}

TEST(ExitSettingFloors, RequiresAFloor) {
  const Fixture f;
  EXPECT_THROW(dp_exit_setting_floors(f.g, f.cands, f.acc, f.profile,
                                      small_opts(0.0), {}),
               ContractViolation);
}

TEST(ExitSettingFork, TableDifferingInItsPrefixThrows) {
  const Fixture f;
  Rng rng(3);
  const auto opts = small_opts(0.0);
  const ExitCostTable shared = random_table(rng, f.cands.size());
  const std::size_t k = f.cands.size();
  ExitCostTable segment_differs = shared;
  segment_differs.segment[k - 1] =
      std::nextafter(shared.segment[k - 1], 10.0);
  EXPECT_THROW(dp_exit_setting_forked(f.cands, f.acc, shared,
                                      {segment_differs}, {k}, opts),
               ContractViolation);
  // Equal is bit-equal: a zero head against a negative-zero one differs.
  ExitCostTable zero_head = shared;
  zero_head.head[0] = 0.0;
  ExitCostTable negative_zero_head = zero_head;
  negative_zero_head.head[0] = -0.0;
  EXPECT_THROW(dp_exit_setting_forked(f.cands, f.acc, zero_head,
                                      {negative_zero_head}, {1}, opts),
               ContractViolation);
  // Past the prefix a fork may differ: the same table forked at k - 1 runs.
  EXPECT_NO_THROW(dp_exit_setting_forked(f.cands, f.acc, shared,
                                         {segment_differs}, {k - 1}, opts));
  EXPECT_THROW(dp_exit_setting_forked(f.cands, f.acc, shared, {shared},
                                      {k + 1}, opts),
               ContractViolation);
}

// The Pareto sets are sorted by latency, which a NaN cannot be: an infinite
// price times the top bin's zero reach would make one, so it is refused.
TEST(ExitSettingFork, NonFinitePriceThrows) {
  const Fixture f;
  Rng rng(4);
  const auto opts = small_opts(0.0);
  const ExitCostTable shared = random_table(rng, f.cands.size());
  ExitCostTable infinite_tail = shared;
  infinite_tail.tail = std::numeric_limits<double>::infinity();
  EXPECT_THROW(dp_on_table(f, infinite_tail, opts), ContractViolation);
  ExitCostTable nan_head = shared;
  nan_head.head[0] = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(dp_exit_setting_forked(f.cands, f.acc, shared,
                                      {nan_head}, {0}, opts),
               ContractViolation);
}

// Frozen dp_exit_setting results on every zoo model, at the joint
// optimizer's DP settings, under three difficulty shapes and two floors:
// an FNV-1a hash of each result's policy (theta bits included), feasible
// flag, evaluations and labels. expected_latency is left out on purpose: it
// is the policy's price, which may be recomputed by another pricer, while
// everything hashed here is what the DP chose and how much work it did.
TEST(ExitSettingGolden, Zoo) {
  const std::map<std::string, std::uint64_t> want = {
      {"alexnet", 0xa378d1da208238f2ull},
      {"googlenet", 0xa7bb289c31f45cdaull},
      {"lenet5", 0x3d3160acc09c6069ull},
      {"mobilenet_v1", 0xf519ae182875fa21ull},
      {"resnet18", 0x6627f3fb2f024d40ull},
      {"resnet34", 0xf80987ea9a65f9ceull},
      {"resnet50", 0xf12d8666eaf7ce20ull},
      {"squeezenet", 0x9a161a3e6a5935bfull},
      {"tiny_cnn", 0x19808006cfd77fbeull},
      {"tiny_yolo", 0x8008287e6ad54cb0ull},
      {"vgg16", 0x8a73ad09b5e0539bull},
      {"vgg19", 0x009eeab748b0a37cull},
  };
  for (const auto& model : models::zoo_names()) {
    const Graph g = models::by_name(model);
    const AccuracyModel acc = AccuracyModel::for_model(model);
    ExitCandidateOptions copts;
    copts.num_classes = 10;
    const auto cands = find_exit_candidates(g, copts);
    std::string text;
    for (const char* shape : {"uniform", "hard_heavy", "bimodal_easy"}) {
      for (const double floor : {0.0, acc.a_max - 0.05}) {
        ExitSettingOptions opts;
        opts.min_accuracy = floor;
        opts.max_exits = 3;
        opts.coverage_bins = 60;
        opts.difficulty = DifficultyModel::preset(shape);
        const auto r =
            dp_exit_setting(g, cands, acc, profiles::raspberry_pi4(), opts);
        text += std::to_string(r.feasible) + " " +
                std::to_string(r.evaluations) + " " +
                std::to_string(r.labels);
        for (const auto& e : r.policy.exits) {
          text += " " + std::to_string(e.candidate) + ":" +
                  std::to_string(std::bit_cast<std::uint64_t>(e.theta));
        }
        text += "\n";
      }
    }
    const auto it = want.find(model);
    ASSERT_NE(it, want.end()) << model;
    EXPECT_EQ(fnv1a(text), it->second)
        << model << " hash 0x" << std::hex << fnv1a(text);
  }
}

}  // namespace
}  // namespace scalpel
