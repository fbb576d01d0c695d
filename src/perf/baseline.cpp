#include "perf/baseline.hpp"

#include <cmath>
#include <cstdio>

#include "perf/simcore_bench.hpp"
#include "util/assert.hpp"

namespace scalpel::perf {
namespace {

double finite_positive(const Json& obj, const std::string& key) {
  SCALPEL_REQUIRE(obj.contains(key),
                  "simcore report is missing a required key");
  const double v = obj.at(key).as_number();
  SCALPEL_REQUIRE(std::isfinite(v) && v > 0.0,
                  "simcore report value must be finite and positive");
  return v;
}

}  // namespace

void validate_simcore_report(const Json& report) {
  SCALPEL_REQUIRE(report.is_object(), "simcore report must be an object");
  SCALPEL_REQUIRE(report.contains("bench") &&
                      report.at("bench").as_string() == "simcore",
                  "not a BENCH_simcore report");
  SCALPEL_REQUIRE(report.contains("schema_version") &&
                      report.at("schema_version").as_int() ==
                          kSimcoreSchemaVersion,
                  "simcore report schema_version mismatch");

  SCALPEL_REQUIRE(report.contains("build"), "report is missing build info");
  const Json& build = report.at("build");
  for (const char* key : {"optimized", "sanitized", "unoptimized"}) {
    SCALPEL_REQUIRE(build.contains(key), "build info is missing a flag");
    build.at(key).as_bool();  // kind check
  }
  SCALPEL_REQUIRE(build.contains("compiler") && build.contains("cpu"),
                  "build info is missing compiler/cpu strings");

  SCALPEL_REQUIRE(report.contains("workload"),
                  "report is missing the workload definition");
  const Json& work = report.at("workload");
  finite_positive(work, "devices");
  finite_positive(work, "servers");
  finite_positive(work, "arrival_rate");
  finite_positive(work, "horizon_seconds");
  SCALPEL_REQUIRE(work.contains("sim_seed") && work.contains("cluster_seed"),
                  "workload is missing its seeds");
  SCALPEL_REQUIRE(work.contains("shards") &&
                      work.at("shards").as_number() >= 0.0,
                  "workload is missing the shard count");

  SCALPEL_REQUIRE(report.contains("results"), "report is missing results");
  const Json& results = report.at("results");
  SCALPEL_REQUIRE(results.contains("des") && results.contains("solver"),
                  "results must cover the DES and the solver");
  const Json& des = results.at("des");
  finite_positive(des, "events");
  finite_positive(des, "best_seconds");
  finite_positive(des, "events_per_sec");
  finite_positive(des, "ns_per_event");
  SCALPEL_REQUIRE(des.contains("alloc_hook") &&
                      des.contains("allocs_per_event"),
                  "DES results are missing the allocation figures");
  if (des.at("alloc_hook").as_bool()) {
    const double a = des.at("allocs_per_event").as_number();
    SCALPEL_REQUIRE(std::isfinite(a) && a >= 0.0,
                    "allocs_per_event must be finite and non-negative");
  }
  const Json& solver = results.at("solver");
  finite_positive(solver, "best_seconds");
  finite_positive(solver, "us_per_solve");
  if (solver.contains("ladder_us_per_build")) {
    finite_positive(solver, "ladder_us_per_build");
  }
  if (solver.contains("dp_labels")) {
    const double labels = solver.at("dp_labels").as_number();
    SCALPEL_REQUIRE(std::isfinite(labels) && labels >= 0.0 &&
                        labels == std::floor(labels),
                    "dp_labels must be a non-negative count");
  }

  // Sharded-engine section: present iff the workload ran with shards > 0.
  const bool sharded_workload = work.at("shards").as_number() > 0.0;
  SCALPEL_REQUIRE(results.contains("sharded") == sharded_workload,
                  "sharded section must match the workload's shard count");
  if (sharded_workload) {
    const Json& sharded = results.at("sharded");
    finite_positive(sharded, "shards");
    finite_positive(sharded, "events");
    finite_positive(sharded, "best_seconds");
    finite_positive(sharded, "events_per_sec");
    finite_positive(sharded, "ns_per_event");
    SCALPEL_REQUIRE(sharded.contains("bit_identical") &&
                        sharded.at("bit_identical").as_bool(),
                    "a sharded timing is only publishable when the run was "
                    "bit-identical to the one-shard run");
  }

  // Metro sweep: optional informational scaling data (never gated), but
  // when present every point must carry usable numbers.
  if (results.contains("metro_sweep")) {
    const Json& sweep = results.at("metro_sweep");
    SCALPEL_REQUIRE(sweep.is_array() && sweep.size() > 0,
                    "metro_sweep must be a non-empty array");
    for (std::size_t i = 0; i < sweep.size(); ++i) {
      const Json& p = sweep.at(i);
      finite_positive(p, "devices");
      finite_positive(p, "events");
      finite_positive(p, "wall_seconds");
      finite_positive(p, "events_per_sec");
    }
  }
}

GateResult check_regression(const Json& baseline, const Json& candidate,
                            double tolerance) {
  SCALPEL_REQUIRE(tolerance > 0.0, "gate tolerance must be positive");
  validate_simcore_report(baseline);
  validate_simcore_report(candidate);

  GateResult r;
  // Exact work counts do not depend on the build, so they gate every
  // candidate, with no tolerance: any rise fails.
  bool work_ok = true;
  std::string work_note;
  auto gate_work = [&](const Json& base, const Json& cand, const char* key,
                       const char* what) {
    const double b = base.at(key).as_number();
    const double c = cand.at(key).as_number();
    char buf[96];
    std::snprintf(buf, sizeof(buf), "; %s %.0f vs %.0f%s", what, c, b,
                  c <= b ? "" : " (ROSE)");
    work_note += buf;
    work_ok = work_ok && c <= b;
  };
  const Json& base_results = baseline.at("results");
  const Json& cand_results = candidate.at("results");
  const Json& base_solver_json = base_results.at("solver");
  const Json& cand_solver_json = cand_results.at("solver");
  if (base_solver_json.contains("dp_labels") &&
      cand_solver_json.contains("dp_labels")) {
    r.baseline_dp_labels = base_solver_json.at("dp_labels").as_number();
    r.candidate_dp_labels = cand_solver_json.at("dp_labels").as_number();
    gate_work(base_solver_json, cand_solver_json, "dp_labels",
              "solver dp_labels");
  }
  gate_work(base_results.at("des"), cand_results.at("des"), "events",
            "des events");
  const bool both_sharded =
      base_results.contains("sharded") && cand_results.contains("sharded");
  if (both_sharded) {
    gate_work(base_results.at("sharded"), cand_results.at("sharded"),
              "events", "sharded events");
  }

  if (candidate.at("build").at("unoptimized").as_bool()) {
    r.passed = work_ok;
    r.skipped = true;
    r.message =
        std::string(work_ok ? "SKIPPED" : "FAIL") +
        ": candidate comes from an unoptimized/sanitizer build; "
        "its timings are meaningless for regression gating" +
        work_note;
    return r;
  }

  r.baseline_ns_per_event =
      base_results.at("des").at("ns_per_event").as_number();
  r.candidate_ns_per_event =
      cand_results.at("des").at("ns_per_event").as_number();
  r.ratio = r.candidate_ns_per_event / r.baseline_ns_per_event;
  r.passed = r.ratio <= 1.0 + tolerance;

  // The solver is mandatory in the schema, so it always gates: the joint
  // optimizer is the other latency-critical loop and regressions there are
  // just as real as DES ones.
  const double base_solver = base_solver_json.at("us_per_solve").as_number();
  const double cand_solver = cand_solver_json.at("us_per_solve").as_number();
  r.ratio_solver = cand_solver / base_solver;
  r.passed = r.passed && r.ratio_solver <= 1.0 + tolerance && work_ok;
  char solver_buf[96];
  std::snprintf(solver_buf, sizeof(solver_buf),
                "; solver us/solve %.0f vs %.0f (%.2fx)", cand_solver,
                base_solver, r.ratio_solver);
  std::string solver_note = solver_buf;
  // The ladder gates like the solve whenever both sides measured it.
  if (base_solver_json.contains("ladder_us_per_build") &&
      cand_solver_json.contains("ladder_us_per_build")) {
    const double base_ladder =
        base_solver_json.at("ladder_us_per_build").as_number();
    const double cand_ladder =
        cand_solver_json.at("ladder_us_per_build").as_number();
    r.ratio_ladder = cand_ladder / base_ladder;
    r.passed = r.passed && r.ratio_ladder <= 1.0 + tolerance;
    char ladder_buf[96];
    std::snprintf(ladder_buf, sizeof(ladder_buf),
                  "; ladder us/build %.0f vs %.0f (%.2fx)", cand_ladder,
                  base_ladder, r.ratio_ladder);
    solver_note += ladder_buf;
  }

  // The sharded loop gates with the same tolerance whenever both sides
  // measured it; a report without the section simply isn't compared.
  std::string sharded_note;
  if (both_sharded) {
    const double base_ns =
        base_results.at("sharded").at("ns_per_event").as_number();
    const double cand_ns =
        cand_results.at("sharded").at("ns_per_event").as_number();
    r.ratio_sharded = cand_ns / base_ns;
    r.passed = r.passed && r.ratio_sharded <= 1.0 + tolerance;
    char sbuf[96];
    std::snprintf(sbuf, sizeof(sbuf),
                  "; sharded ns/event %.1f vs %.1f (%.2fx)", cand_ns, base_ns,
                  r.ratio_sharded);
    sharded_note = sbuf;
  }

  std::string warn;
  const std::string& base_cpu =
      baseline.at("build").at("cpu").as_string();
  const std::string& cand_cpu =
      candidate.at("build").at("cpu").as_string();
  if (base_cpu != cand_cpu) {
    warn = " [warning: baseline CPU \"" + base_cpu +
           "\" differs from candidate CPU \"" + cand_cpu +
           "\"; consider re-baselining]";
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s: ns/event %.1f vs baseline %.1f (%.2fx, tolerance %.2fx)",
                r.passed ? "PASS" : "FAIL", r.candidate_ns_per_event,
                r.baseline_ns_per_event, r.ratio, 1.0 + tolerance);
  r.message = std::string(buf) + solver_note + sharded_note + work_note + warn;
  return r;
}

}  // namespace scalpel::perf
