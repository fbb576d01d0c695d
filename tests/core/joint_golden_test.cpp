// Golden decisions of the joint optimizer and of every baseline on the
// pinned campus instance (48 devices, 6 servers, cluster seed 7), every
// baseline on a 2,000-device tiled city, the degradation ladder built on a
// joint decision, and the serialized bytes of two topologies. Each decision
// case hashes the serialized Decision (FNV-1a over the JSON dump, doubles
// printed at %.17g); joint cases also pin the JointReport counters,
// including the exit-setting DP's label count. A change meant to be a pure
// speed change must leave every value here unchanged, and a change to the
// DP's inner loop must fold exactly the same labels; a change that moves a
// plan on purpose re-freezes them and says why.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <future>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/failover.hpp"
#include "core/joint.hpp"
#include "core/objective.hpp"
#include "core/online.hpp"
#include "core/serialize.hpp"
#include "edge/builders.hpp"
#include "oracles/oracles.hpp"
#include "util/thread_pool.hpp"

namespace scalpel {
namespace {

ClusterTopology campus_topology() {
  clusters::CampusOptions o;
  o.num_devices = 48;
  o.num_servers = 6;
  o.devices_per_cell = 8;
  o.seed = 7;
  return clusters::campus(o);
}

const ProblemInstance& campus() {
  static const ProblemInstance instance(campus_topology());
  return instance;
}

// The campus instance with non-uniform input difficulty: devices alternate
// hard-heavy and easy-skewed task streams, so the surgery DP integrates a
// skewed difficulty CDF instead of the uniform one.
const ProblemInstance& mixed_difficulty_campus() {
  static const ProblemInstance instance([] {
    const ClusterTopology topo = campus_topology();
    ClusterTopology mixed;
    for (const auto& c : topo.cells()) mixed.add_cell(c);
    for (const auto& s : topo.servers()) mixed.add_server(s);
    for (Device d : topo.devices()) {
      d.difficulty = DifficultyModel::preset(d.id % 2 == 0 ? "hard_heavy"
                                                           : "bimodal_easy");
      mixed.add_device(d);
    }
    return mixed;
  }());
  return instance;
}

// The reproduction benches' solve budget.
JointOptions bench_budget() {
  JointOptions o;
  o.max_iterations = 4;
  o.dp_coverage_bins = 60;
  return o;
}

// F19's light budget for the distributed plane's cell-local solves.
JointOptions light_budget() {
  JointOptions o;
  o.max_iterations = 2;
  o.dp_coverage_bins = 40;
  o.theta_grid = {0.0, 0.3, 0.6};
  return o;
}

// Cell 0's local problem as a CellController builds it: the cell's devices
// and every server scaled to an equal one-in-six capacity slice.
ProblemInstance cell_sub_instance() {
  const auto& topo = campus().topology();
  const std::vector<double> slice(topo.servers().size(), 1.0 / 6.0);
  return failover::reduce(campus(), {topo.cell(0)}, slice);
}

struct Golden {
  std::uint64_t hash;
  std::size_t surgery_evaluations;
  std::size_t iterations;
  std::size_t dp_labels;
};

// The hash also covers the per-round objective history, so it pins every
// round's surgery step even when the portfolio guard keeps the
// frozen-partition plan in the end.
Golden golden_of(const Decision& d, const JointReport& report) {
  std::string text = serialize::to_json(d).dump();
  for (const double v : report.objective_history) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), ";%a", v);  // exact, and inf-safe
    text += buf;
  }
  return {fnv1a(text), report.surgery_evaluations, report.iterations,
          report.dp_labels};
}

Golden solve(const ProblemInstance& instance, const JointOptions& o) {
  JointReport report;
  const Decision d = JointOptimizer(o).optimize(instance, &report);
  return golden_of(d, report);
}

// The light budget on the full campus: cheap enough to solve many times
// under the thread sanitizer.
constexpr Golden kLightCampus{13318250013171793721ull, 1229083, 2, 270403};

void expect_golden(const Golden& got, const Golden& want) {
  EXPECT_EQ(got.hash, want.hash);
  EXPECT_EQ(got.surgery_evaluations, want.surgery_evaluations);
  EXPECT_EQ(got.iterations, want.iterations);
  EXPECT_EQ(got.dp_labels, want.dp_labels);
}

TEST(JointGolden, DefaultOptions) {
  expect_golden(solve(campus(), JointOptions{}),
                {15217154344397945720ull, 7315232, 3, 1231549});
}

TEST(JointGolden, QuantizedUpload) {
  JointOptions o;
  o.enable_quantized_upload = true;
  expect_golden(solve(campus(), o),
                {17012955573726749447ull, 14258553, 3, 2581506});
}

TEST(JointGolden, ExitsDisabled) {
  JointOptions o;
  o.enable_exits = false;
  expect_golden(solve(campus(), o), {3193232548303322234ull, 17805, 3, 6132});
}

TEST(JointGolden, MixedDifficulty) {
  expect_golden(solve(mixed_difficulty_campus(), JointOptions{}),
                {10159046179352435637ull, 8893355, 4, 1431304});
}

TEST(JointGolden, AllocationDisabled) {
  // Grants stay at the initial equal split, so every round re-derives equal
  // server shares instead of running the allocation step.
  JointOptions o;
  o.enable_allocation = false;
  expect_golden(solve(campus(), o),
                {11249721272230434607ull, 11374051, 6, 849196});
}

TEST(JointGolden, SurgeryDisabled) {
  JointOptions o;
  o.enable_surgery = false;
  expect_golden(solve(campus(), o),
                {12389468856645519380ull, 0, 2, 0});
}

TEST(JointGolden, BenchBudgetExcludingDeadServer) {
  // Server 2 is dead: the online controller's reduction leaves it out, and
  // the lifted plan is evaluated on the full instance.
  std::vector<double> scale(campus().topology().servers().size(), 1.0);
  scale[2] = 0.0;
  JointReport report;
  Decision d = JointOptimizer(bench_budget())
                   .optimize(failover::reduce(campus(),
                                              campus().topology().cells(),
                                              scale),
                             &report);
  failover::lift(d, scale);
  evaluate_decision(campus(), d);
  expect_golden(golden_of(d, report),
                {9476720235548454660ull, 7304687, 3, 1231985});
}

TEST(JointGolden, LightBudgetCellSubInstance) {
  expect_golden(solve(cell_sub_instance(), light_budget()),
                {11221737706401034917ull, 210547, 2, 41417});
}

TEST(JointGolden, LightBudgetCampus) {
  expect_golden(solve(campus(), light_budget()), kLightCampus);
}

// Every comparison scheme allocates its fixed plans through the same
// statistics, offloading rows and share rule as the joint optimizer's
// allocation step; these pin each scheme's whole Decision.
struct BaselineGoldenCase {
  const char* scheme;
  std::uint64_t campus;
  std::uint64_t mixed_difficulty;
};

constexpr BaselineGoldenCase kBaselineGoldens[] = {
    {"device_only", 13076354998954509888ull, 13076354998954509888ull},
    {"edge_only", 16968122228027775537ull, 16968122228027775537ull},
    {"neurosurgeon", 14304940197959423887ull, 14304940197959423887ull},
    {"local_multi_exit", 503650267306603518ull, 156380977388700777ull},
    {"random", 1401112919388276059ull, 1401112919388276059ull},
};

std::uint64_t decision_hash(const Decision& d) {
  return fnv1a(serialize::to_json(d).dump());
}

TEST(BaselineGolden, CoversEveryScheme) {
  ASSERT_EQ(baselines::names().size(), std::size(kBaselineGoldens));
  for (std::size_t k = 0; k < std::size(kBaselineGoldens); ++k) {
    EXPECT_EQ(baselines::names()[k], kBaselineGoldens[k].scheme);
  }
}

TEST(BaselineGolden, Campus) {
  for (const auto& g : kBaselineGoldens) {
    SCOPED_TRACE(g.scheme);
    EXPECT_EQ(decision_hash(baselines::by_name(campus(), g.scheme)), g.campus);
  }
}

TEST(BaselineGolden, MixedDifficultyCampus) {
  for (const auto& g : kBaselineGoldens) {
    SCOPED_TRACE(g.scheme);
    EXPECT_EQ(
        decision_hash(baselines::by_name(mixed_difficulty_campus(), g.scheme)),
        g.mixed_difficulty);
  }
}

// A tiled city at the metro sweep's rates (perf/simcore_bench.cpp): 2,000
// devices in 100-device cells, 20 distinct (model, compute class) pairs.
// Most devices share a compiled PlanModel with many others, so this pins the
// evaluator on inputs that repeat.
const ProblemInstance& tiled_city() {
  static const ProblemInstance instance([] {
    clusters::CampusOptions o;
    o.num_devices = 2000;
    o.num_servers = 32;
    o.devices_per_cell = 100;
    o.cell_rtt = 10e-3;
    o.mean_arrival_rate = 0.05;
    o.deadline = 0.0;
    o.seed = 7;
    return clusters::campus(o);
  }());
  return instance;
}

constexpr std::uint64_t kTiledCityGoldens[] = {
    16257750399425707454ull,  // device_only
    1090124966815825390ull,   // edge_only
    4830891618879790370ull,   // neurosurgeon
    11465725421441604810ull,  // local_multi_exit
    15351630626992106321ull,  // random
};

TEST(BaselineGolden, TiledCity) {
  const std::vector<std::string> schemes = baselines::names();
  ASSERT_EQ(schemes.size(), std::size(kTiledCityGoldens));
  for (std::size_t k = 0; k < schemes.size(); ++k) {
    SCOPED_TRACE(schemes[k]);
    EXPECT_EQ(decision_hash(baselines::by_name(tiled_city(), schemes[k])),
              kTiledCityGoldens[k]);
  }
}

TEST(BaselineGolden, SmallExhaustiveSmallLab) {
  const ProblemInstance lab(clusters::small_lab());
  EXPECT_EQ(decision_hash(baselines::small_exhaustive(lab)),
            9115249898802603509ull);
}

// The exact bytes a topology serializes to: compute profiles (efficiency
// tables included), energy profiles, cells and servers.
TEST(TopologyGolden, SmallLab) {
  EXPECT_EQ(fnv1a(serialize::to_json(clusters::small_lab()).dump()),
            15558590917965072384ull);
}

TEST(TopologyGolden, Campus) {
  EXPECT_EQ(fnv1a(serialize::to_json(campus_topology()).dump()),
            15908068088100929264ull);
}

// The whole degradation ladder: per rung, every plan, every sustainable
// rate, the predicted accuracy and the accuracy floor (doubles as %a).
std::uint64_t ladder_hash(const std::vector<LadderRung>& ladder) {
  std::string text;
  for (const LadderRung& rung : ladder) {
    text += "rung";
    for (const SurgeryPlan& plan : rung.plans) {
      text += serialize::to_json(plan).dump();
    }
    char buf[40];
    for (const double v : rung.sustainable) {
      std::snprintf(buf, sizeof(buf), ";%a", v);
      text += buf;
    }
    std::snprintf(buf, sizeof(buf), ";%a", rung.predicted_accuracy);
    text += buf;
    std::snprintf(buf, sizeof(buf), ";%a", rung.accuracy_floor);
    text += buf;
  }
  return fnv1a(text);
}

// The campus solved at the bench budget: the base the online controller
// builds its ladder on in the reproduction benches.
const Decision& campus_bench_decision() {
  static const Decision d = JointOptimizer(bench_budget()).optimize(campus());
  return d;
}

std::vector<LadderRung> campus_ladder() {
  return build_degradation_ladder(campus(), campus_bench_decision(),
                                  bench_budget());
}

constexpr std::uint64_t kCampusLadder = 4974945348636531626ull;

TEST(OnlineLadderGolden, CampusBenchBudget) {
  const std::vector<LadderRung> ladder = campus_ladder();
  EXPECT_EQ(ladder.size(), 5u);
  EXPECT_EQ(ladder_hash(ladder), kCampusLadder);
}

TEST(OnlineLadderGolden, SmallLab) {
  const ProblemInstance lab(clusters::small_lab());
  const Decision base = JointOptimizer().optimize(lab);
  const std::vector<LadderRung> ladder =
      build_degradation_ladder(lab, base, JointOptions{});
  EXPECT_EQ(ladder.size(), 4u);  // one rung repeats the rung above it
  EXPECT_EQ(ladder_hash(ladder), 5536418643421328880ull);
}

// The surgery step fans out on ThreadPool::shared(). These reach it from
// another pool's workers and from several threads at once; every solve must
// still produce the golden result.
TEST(JointGoldenConcurrency, FromPoolWorkers) {
  constexpr std::size_t kSolves = 4;
  std::vector<Golden> got(kSolves, Golden{0, 0, 0, 0});
  ThreadPool pool(kSolves);
  std::vector<std::future<void>> done;
  for (std::size_t r = 0; r < kSolves; ++r) {
    done.push_back(
        pool.submit([&got, r] { got[r] = solve(campus(), light_budget()); }));
  }
  for (auto& f : done) f.get();
  for (const Golden& g : got) expect_golden(g, kLightCampus);
}

TEST(JointGoldenConcurrency, FromConcurrentThreads) {
  constexpr std::size_t kThreads = 4;
  std::vector<Golden> got(kThreads, Golden{0, 0, 0, 0});
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&got, t] { got[t] = solve(campus(), light_budget()); });
  }
  for (auto& t : threads) t.join();
  for (const Golden& g : got) expect_golden(g, kLightCampus);
}

// The ladder's DPs fan out on ThreadPool::shared() too: built from that
// pool's own workers (where each build's fan-out shares its chunks with
// whichever workers are idle) and from several threads at once, every
// ladder must still be the golden one.
TEST(OnlineLadderGoldenConcurrency, FromPoolWorkers) {
  constexpr std::size_t kBuilds = 4;
  campus_bench_decision();  // solve once, before the builds race
  std::vector<std::uint64_t> got(kBuilds, 0);
  std::vector<std::future<void>> done;
  for (std::size_t r = 0; r < kBuilds; ++r) {
    done.push_back(ThreadPool::shared().submit(
        [&got, r] { got[r] = ladder_hash(campus_ladder()); }));
  }
  for (auto& f : done) f.get();
  for (const std::uint64_t h : got) EXPECT_EQ(h, kCampusLadder);
}

TEST(OnlineLadderGoldenConcurrency, FromConcurrentThreads) {
  constexpr std::size_t kThreads = 4;
  campus_bench_decision();
  std::vector<std::uint64_t> got(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back(
        [&got, t] { got[t] = ladder_hash(campus_ladder()); });
  }
  for (auto& t : threads) t.join();
  for (const std::uint64_t h : got) EXPECT_EQ(h, kCampusLadder);
}

}  // namespace
}  // namespace scalpel
