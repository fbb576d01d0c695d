// Golden-baseline coverage for the perf harness: the BENCH_simcore report
// schema (one code path produces it; this suite pins what it must contain),
// the regression gate (including the fail-on-2x-slowdown self-test the CI
// tier relies on), the allocation hook, and an allocation-count regression.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "edge/builders.hpp"
#include "perf/alloc_hook.hpp"
#include "perf/baseline.hpp"
#include "perf/build_info.hpp"
#include "perf/harness.hpp"
#include "perf/simcore_bench.hpp"
#include "util/assert.hpp"

namespace scalpel {
namespace {

namespace perf = scalpel::perf;

/// Tiny but real run of the shared bench code path (seconds, not minutes).
Json tiny_report() {
  perf::SimcoreBenchConfig c;
  c.devices = 4;
  c.servers = 2;
  c.arrival_rate = 2.0;
  c.horizon = 6.0;
  c.warmup = 1.0;
  c.des_reps = 1;
  c.solver_reps = 1;
  return perf::run_simcore_bench(c);
}

/// Minimal structurally-valid report for gate unit tests — hand-built so a
/// 2x-slowdown candidate costs nothing to construct. `sharded_ns > 0` adds
/// the v2 sharded section (and the matching workload shard count).
Json fake_report(double ns_per_event, bool unoptimized,
                 const std::string& cpu, double sharded_ns = 0.0,
                 double solver_us = 10000.0) {
  Json build = Json::object();
  build.set("optimized", Json::boolean(!unoptimized));
  build.set("sanitized", Json::boolean(false));
  build.set("unoptimized", Json::boolean(unoptimized));
  build.set("compiler", Json::string("test"));
  build.set("cpu", Json::string(cpu));

  Json work = Json::object();
  work.set("devices", Json::number(4));
  work.set("servers", Json::number(2));
  work.set("arrival_rate", Json::number(2.0));
  work.set("horizon_seconds", Json::number(6.0));
  work.set("warmup_seconds", Json::number(1.0));
  work.set("cluster_seed", Json::number(7));
  work.set("sim_seed", Json::number(12345));
  work.set("shards", Json::number(sharded_ns > 0.0 ? 4.0 : 0.0));
  work.set("injected_slowdown", Json::number(0.0));

  const double events = 10000.0;
  Json des = Json::object();
  des.set("reps", Json::number(1));
  des.set("events", Json::number(events));
  des.set("tasks_arrived", Json::number(2000));
  des.set("tasks_completed", Json::number(1900));
  des.set("best_seconds", Json::number(ns_per_event * events / 1e9));
  des.set("events_per_sec", Json::number(1e9 / ns_per_event));
  des.set("ns_per_event", Json::number(ns_per_event));
  des.set("alloc_hook", Json::boolean(false));
  des.set("allocs_per_event", Json::number(-1.0));

  Json solver = Json::object();
  solver.set("reps", Json::number(1));
  solver.set("best_seconds", Json::number(solver_us / 1e6));
  solver.set("us_per_solve", Json::number(solver_us));

  Json results = Json::object();
  results.set("des", std::move(des));
  results.set("solver", std::move(solver));
  if (sharded_ns > 0.0) {
    Json sharded = Json::object();
    sharded.set("shards", Json::number(4));
    sharded.set("reps", Json::number(1));
    sharded.set("events", Json::number(events));
    sharded.set("best_seconds", Json::number(sharded_ns * events / 1e9));
    sharded.set("events_per_sec", Json::number(1e9 / sharded_ns));
    sharded.set("ns_per_event", Json::number(sharded_ns));
    sharded.set("bit_identical", Json::boolean(true));
    results.set("sharded", std::move(sharded));
  }

  Json report = Json::object();
  report.set("bench", Json::string("simcore"));
  report.set("schema_version",
             Json::number(static_cast<double>(perf::kSimcoreSchemaVersion)));
  report.set("build", std::move(build));
  report.set("workload", std::move(work));
  report.set("results", std::move(results));
  return report;
}

TEST(SimcoreReport, TinyRunProducesValidSchema) {
  const Json report = tiny_report();
  // Throws on any structural problem.
  perf::validate_simcore_report(report);

  // Spot checks beyond structure: units consistent, values sane.
  const Json& des = report.at("results").at("des");
  const double events = des.at("events").as_number();
  const double best = des.at("best_seconds").as_number();
  EXPECT_GT(events, 100.0);
  EXPECT_NEAR(des.at("events_per_sec").as_number(), events / best,
              events / best * 1e-9);
  EXPECT_NEAR(des.at("ns_per_event").as_number(), best * 1e9 / events,
              1e-6);
  EXPECT_GT(report.at("results").at("solver").at("us_per_solve").as_number(),
            0.0);
  EXPECT_GT(report.at("results").at("solver").at("dp_labels").as_number(),
            0.0);
  EXPECT_GT(
      report.at("results").at("solver").at("ladder_us_per_build").as_number(),
      0.0);
  // Default config includes the sharded section; its presence means the
  // tiny run already cleared the bit-identity REQUIRE inside the bench.
  ASSERT_TRUE(report.at("results").contains("sharded"));
  EXPECT_TRUE(
      report.at("results").at("sharded").at("bit_identical").as_bool());
  // A report must always say which build produced it.
  EXPECT_EQ(report.at("build").at("unoptimized").as_bool(),
            !perf::timing_trustworthy());
  // Round-trips through the JSON layer (what ci.sh perf does).
  perf::validate_simcore_report(Json::parse(report.dump()));
}

TEST(SimcoreReport, CommittedBaselineParsesAndValidates) {
  // The checked-in scoreboard must stay loadable by the gate tooling. Skip
  // gracefully when the test runs outside the repo tree.
  // ctest runs this from <build>/tests; direct runs from the repo root or
  // the build dir also work.
  std::ifstream in("BENCH_simcore.json");
  if (!in) in.open("../BENCH_simcore.json");
  if (!in) in.open("../../BENCH_simcore.json");
  if (!in) GTEST_SKIP() << "BENCH_simcore.json not found from cwd";
  std::ostringstream buf;
  buf << in.rdbuf();
  const Json baseline = Json::parse(buf.str());
  perf::validate_simcore_report(baseline);
  EXPECT_FALSE(baseline.at("build").at("unoptimized").as_bool())
      << "the committed baseline must come from an optimized build";
  // The tracked scoreboard must cover the sharded engine and the
  // metro-scale sweep (EXPERIMENTS.md, "P2 metro-scale sharding"): a
  // re-baseline that forgets --shards or --sweep fails here, not later.
  EXPECT_TRUE(baseline.at("results").contains("sharded"));
  // ...and the solver's exact work, which the gate holds with no tolerance,
  // and the degradation ladder's build time.
  EXPECT_TRUE(baseline.at("results").at("solver").contains("dp_labels"));
  EXPECT_TRUE(
      baseline.at("results").at("solver").contains("ladder_us_per_build"));
  ASSERT_TRUE(baseline.at("results").contains("metro_sweep"));
  const Json& sweep = baseline.at("results").at("metro_sweep");
  double max_devices = 0.0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    max_devices =
        std::max(max_devices, sweep.at(i).at("devices").as_number());
  }
  EXPECT_GE(max_devices, 1e6)
      << "the baseline sweep must reach the million-device point";
}

TEST(SimcoreReport, ValidateRejectsBrokenDocuments) {
  EXPECT_THROW(perf::validate_simcore_report(Json::object()),
               ContractViolation);
  // Wrong bench id.
  Json wrong = fake_report(100.0, false, "cpu");
  wrong.set("bench", Json::string("other"));
  EXPECT_THROW(perf::validate_simcore_report(wrong), ContractViolation);
  // Wrong schema version.
  Json old = fake_report(100.0, false, "cpu");
  old.set("schema_version", Json::number(0));
  EXPECT_THROW(perf::validate_simcore_report(old), ContractViolation);
  // Non-positive metric. (Truly non-finite values cannot even be built:
  // the Json layer rejects NaN/inf at construction.)
  EXPECT_THROW(Json::number(std::numeric_limits<double>::quiet_NaN()),
               ContractViolation);
  Json neg = fake_report(-5.0, false, "cpu");
  EXPECT_THROW(perf::validate_simcore_report(neg), ContractViolation);
}

TEST(RegressionGate, PassesWithinTolerance) {
  const Json base = fake_report(100.0, false, "cpu-a");
  const auto r =
      perf::check_regression(base, fake_report(110.0, false, "cpu-a"), 0.15);
  EXPECT_TRUE(r.passed);
  EXPECT_FALSE(r.skipped);
  EXPECT_NEAR(r.ratio, 1.10, 1e-12);
}

TEST(RegressionGate, FailsOnTwoTimesSlowdown) {
  // The CI self-test scenario: a 2x-slower candidate must fail a 15% gate.
  const Json base = fake_report(100.0, false, "cpu-a");
  const auto r =
      perf::check_regression(base, fake_report(200.0, false, "cpu-a"), 0.15);
  EXPECT_FALSE(r.passed);
  EXPECT_FALSE(r.skipped);
  EXPECT_NEAR(r.ratio, 2.0, 1e-12);
  EXPECT_NE(r.message.find("FAIL"), std::string::npos);
}

TEST(RegressionGate, FailsJustPastTolerance) {
  const Json base = fake_report(100.0, false, "cpu-a");
  EXPECT_FALSE(
      perf::check_regression(base, fake_report(116.0, false, "cpu-a"), 0.15)
          .passed);
  EXPECT_TRUE(
      perf::check_regression(base, fake_report(114.9, false, "cpu-a"), 0.15)
          .passed);
}

TEST(RegressionGate, GatesShardedSectionWhenBothSidesHaveIt) {
  // Classic loop steady, sharded loop 2x slower: the gate must fail — a
  // regression confined to the sharded engine is still a regression.
  const Json base = fake_report(100.0, false, "cpu-a", 80.0);
  const auto bad =
      perf::check_regression(base, fake_report(100.0, false, "cpu-a", 160.0),
                             0.15);
  EXPECT_FALSE(bad.passed);
  EXPECT_NEAR(bad.ratio_sharded, 2.0, 1e-12);
  EXPECT_NE(bad.message.find("sharded"), std::string::npos);

  const auto good =
      perf::check_regression(base, fake_report(100.0, false, "cpu-a", 85.0),
                             0.15);
  EXPECT_TRUE(good.passed);

  // A candidate without the section is compared on the classic loop only.
  const auto classic_only =
      perf::check_regression(base, fake_report(100.0, false, "cpu-a"), 0.15);
  EXPECT_TRUE(classic_only.passed);
  EXPECT_EQ(classic_only.ratio_sharded, 0.0);
}

TEST(RegressionGate, GatesSolverTiming) {
  // The solver section is mandatory, so it always gates: a joint-optimizer
  // slowdown with a steady DES loop must still fail.
  const Json base = fake_report(100.0, false, "cpu-a");
  const auto bad = perf::check_regression(
      base, fake_report(100.0, false, "cpu-a", 0.0, 20000.0), 0.15);
  EXPECT_FALSE(bad.passed);
  EXPECT_NEAR(bad.ratio_solver, 2.0, 1e-12);
  EXPECT_NE(bad.message.find("solver"), std::string::npos);

  const auto good = perf::check_regression(
      base, fake_report(100.0, false, "cpu-a", 0.0, 10500.0), 0.15);
  EXPECT_TRUE(good.passed);
  EXPECT_NEAR(good.ratio_solver, 1.05, 1e-12);
}

// Sets the event count of one engine section ("des" or "sharded").
Json with_events(Json report, const char* section, double events) {
  Json results = report.at("results");
  Json engine = results.at(section);
  engine.set("events", Json::number(events));
  results.set(section, std::move(engine));
  report.set("results", std::move(results));
  return report;
}

TEST(RegressionGate, FailsOnAnyRiseInEngineEvents) {
  // The events a pinned run dispatches are exact work, like dp_labels: one
  // more in the DES or the sharded section fails the gate, however fast the
  // timings, and an unoptimized build does not excuse it.
  const Json base = fake_report(100.0, false, "cpu-a", 80.0);
  const auto same =
      perf::check_regression(base, fake_report(100.0, false, "cpu-a", 80.0),
                             0.15);
  EXPECT_TRUE(same.passed);
  EXPECT_NE(same.message.find("des events 10000 vs 10000"),
            std::string::npos);
  const auto fewer = perf::check_regression(
      base, with_events(fake_report(100.0, false, "cpu-a", 80.0), "des", 9999),
      0.15);
  EXPECT_TRUE(fewer.passed);
  const auto des_more = perf::check_regression(
      base, with_events(fake_report(50.0, false, "cpu-a", 40.0), "des", 10001),
      0.15);
  EXPECT_FALSE(des_more.passed);
  EXPECT_NE(des_more.message.find("des events 10001 vs 10000 (ROSE)"),
            std::string::npos);
  const auto sharded_more = perf::check_regression(
      base,
      with_events(fake_report(50.0, false, "cpu-a", 40.0), "sharded", 10001),
      0.15);
  EXPECT_FALSE(sharded_more.passed);
  EXPECT_NE(sharded_more.message.find("sharded events 10001 vs 10000 (ROSE)"),
            std::string::npos);
  const auto debug_more = perf::check_regression(
      base,
      with_events(fake_report(5000.0, true, "cpu-a", 4000.0), "des", 10001),
      0.15);
  EXPECT_FALSE(debug_more.passed);
  EXPECT_TRUE(debug_more.skipped);
  // A side without the sharded section is compared on the DES count only.
  EXPECT_TRUE(perf::check_regression(base, fake_report(100.0, false, "cpu-a"),
                                     0.15)
                  .passed);
}

// Sets the solver section's dp_labels on a fake report.
Json with_dp_labels(Json report, double labels) {
  Json results = report.at("results");
  Json solver = results.at("solver");
  solver.set("dp_labels", Json::number(labels));
  results.set("solver", std::move(solver));
  report.set("results", std::move(results));
  return report;
}

TEST(RegressionGate, FailsOnAnyRiseInDpLabels) {
  // The label count is exact work: one more label fails the gate, however
  // fast the timings, and an unoptimized build does not excuse it.
  const Json base = with_dp_labels(fake_report(100.0, false, "cpu-a"), 1000);
  const auto same = perf::check_regression(
      base, with_dp_labels(fake_report(100.0, false, "cpu-a"), 1000), 0.15);
  EXPECT_TRUE(same.passed);
  EXPECT_EQ(same.candidate_dp_labels, 1000.0);
  const auto fewer = perf::check_regression(
      base, with_dp_labels(fake_report(100.0, false, "cpu-a"), 999), 0.15);
  EXPECT_TRUE(fewer.passed);
  const auto more = perf::check_regression(
      base, with_dp_labels(fake_report(50.0, false, "cpu-a"), 1001), 0.15);
  EXPECT_FALSE(more.passed);
  EXPECT_NE(more.message.find("dp_labels"), std::string::npos);
  const auto debug_more = perf::check_regression(
      base, with_dp_labels(fake_report(5000.0, true, "cpu-a"), 1001), 0.15);
  EXPECT_FALSE(debug_more.passed);
  EXPECT_TRUE(debug_more.skipped);
  // A side without the count is compared on timings only.
  EXPECT_TRUE(perf::check_regression(base, fake_report(100.0, false, "cpu-a"),
                                     0.15)
                  .passed);
  EXPECT_THROW(perf::validate_simcore_report(
                   with_dp_labels(fake_report(100.0, false, "cpu-a"), 2.5)),
               ContractViolation);
}

// Sets the solver section's ladder_us_per_build on a fake report.
Json with_ladder_us(Json report, double us) {
  Json results = report.at("results");
  Json solver = results.at("solver");
  solver.set("ladder_us_per_build", Json::number(us));
  results.set("solver", std::move(solver));
  report.set("results", std::move(results));
  return report;
}

TEST(RegressionGate, GatesLadderTimingWhenBothSidesHaveIt) {
  // A ladder slowdown with a steady DES loop and solve fails like a solve
  // slowdown; a side without the figure is compared on the rest only.
  const Json base = with_ladder_us(fake_report(100.0, false, "cpu-a"), 3000);
  const auto bad = perf::check_regression(
      base, with_ladder_us(fake_report(100.0, false, "cpu-a"), 6000), 0.15);
  EXPECT_FALSE(bad.passed);
  EXPECT_NEAR(bad.ratio_ladder, 2.0, 1e-12);
  EXPECT_NE(bad.message.find("ladder"), std::string::npos);
  const auto good = perf::check_regression(
      base, with_ladder_us(fake_report(100.0, false, "cpu-a"), 3300), 0.15);
  EXPECT_TRUE(good.passed);
  EXPECT_NEAR(good.ratio_ladder, 1.1, 1e-12);
  const auto absent = perf::check_regression(
      base, fake_report(100.0, false, "cpu-a"), 0.15);
  EXPECT_TRUE(absent.passed);
  EXPECT_EQ(absent.ratio_ladder, 0.0);
  EXPECT_THROW(perf::validate_simcore_report(
                   with_ladder_us(fake_report(100.0, false, "cpu-a"), 0.0)),
               ContractViolation);
}

TEST(SimcoreReport, ValidatorEnforcesShardedContract) {
  // Section present iff the workload declares shards.
  Json missing = fake_report(100.0, false, "cpu");
  Json work = missing.at("workload");
  work.set("shards", Json::number(4));
  missing.set("workload", std::move(work));
  EXPECT_THROW(perf::validate_simcore_report(missing), ContractViolation);

  // A sharded timing whose run was NOT bit-identical is unpublishable.
  Json lying = fake_report(100.0, false, "cpu", 80.0);
  Json results = lying.at("results");
  Json sharded = results.at("sharded");
  sharded.set("bit_identical", Json::boolean(false));
  results.set("sharded", std::move(sharded));
  lying.set("results", std::move(results));
  EXPECT_THROW(perf::validate_simcore_report(lying), ContractViolation);
}

TEST(RegressionGate, SkipsUnoptimizedCandidates) {
  // Debug/sanitizer numbers must neither fail nor pass the scoreboard on
  // their merits — the gate steps aside loudly.
  const Json base = fake_report(100.0, false, "cpu-a");
  const auto r =
      perf::check_regression(base, fake_report(5000.0, true, "cpu-a"), 0.15);
  EXPECT_TRUE(r.passed);
  EXPECT_TRUE(r.skipped);
  EXPECT_NE(r.message.find("SKIPPED"), std::string::npos);
}

TEST(RegressionGate, WarnsOnCpuMismatch) {
  const Json base = fake_report(100.0, false, "cpu-a");
  const auto r =
      perf::check_regression(base, fake_report(100.0, false, "cpu-b"), 0.15);
  EXPECT_TRUE(r.passed);  // hardware drift warns, never fails by itself
  EXPECT_NE(r.message.find("differs"), std::string::npos);
}

TEST(AllocHook, CountsAllocationsInThisBinary) {
  // This test binary links scalpel_alloc_hook, so counting must be live.
  ASSERT_TRUE(perf::alloc_hook_linked());
  const std::uint64_t before = perf::alloc_count();
  std::vector<std::unique_ptr<int>> keep;
  for (int i = 0; i < 100; ++i) keep.push_back(std::make_unique<int>(i));
  const std::uint64_t after = perf::alloc_count();
  EXPECT_GE(after - before, 100u);
}

TEST(AllocHook, ReportIncludesAllocsPerEvent) {
  const Json report = tiny_report();
  const Json& des = report.at("results").at("des");
  ASSERT_TRUE(des.at("alloc_hook").as_bool());
  const double ape = des.at("allocs_per_event").as_number();
  EXPECT_TRUE(std::isfinite(ape));
  EXPECT_GE(ape, 0.0);
  // The whole point of the pooled inner loop: steady state well under one
  // allocation per event (warm-start growth amortizes to noise).
  EXPECT_LT(ape, 1.0);
}

// Copying a topology costs a fixed number of allocations (its three
// vectors), not one per device: a device's compute profile is a flat table.
TEST(AllocHook, TopologyCopyDoesNotAllocatePerDevice) {
  ASSERT_TRUE(perf::alloc_hook_linked());
  auto copy_allocs = [](std::size_t devices) {
    clusters::CampusOptions o;
    o.num_devices = devices;
    o.num_servers = 32;
    o.devices_per_cell = 100;
    const ClusterTopology topo = clusters::campus(o);
    const std::uint64_t before = perf::alloc_count();
    const ClusterTopology copy = topo;
    const std::uint64_t allocs = perf::alloc_count() - before;
    EXPECT_EQ(copy.devices().size(), devices);
    return allocs;
  };
  EXPECT_EQ(copy_allocs(100), copy_allocs(2000));
}

TEST(Harness, MinOfRepsIsMinimum) {
  int calls = 0;
  const auto t = perf::time_best_of(5, 2, [&] { ++calls; });
  EXPECT_EQ(calls, 7);  // 2 warmup + 5 timed
  EXPECT_EQ(t.reps, 5u);
  EXPECT_GE(t.mean_seconds, t.best_seconds);
  EXPECT_THROW(perf::time_best_of(0, 0, [] {}), ContractViolation);
}

TEST(BuildInfo, ReportsThisCompiler) {
  const auto b = perf::build_info();
  EXPECT_FALSE(b.compiler.empty());
#ifdef NDEBUG
  EXPECT_TRUE(b.optimized);
#else
  EXPECT_FALSE(b.optimized);
#endif
}

}  // namespace
}  // namespace scalpel
