// pipeline_bench — runs one pinned benchmark pipeline and prints its result
// as one JSON line on stdout. perfbench/run.py drives it: it repeats
// pipelines for the measured interval, checks their outputs and reports
// medians.
//
//   pipeline_bench --workload campus-online --seed 3 [--trace 0|1]
//                  [--pipeline ID] [--horizon S] [--out DIR]
//
// Exit codes: 0 = pipeline ran and every correctness check passed, 1 = a
// check failed or the pipeline threw, 2 = bad arguments or a build whose
// timings are not measurements (unoptimized or sanitized).

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <string>

#include "perf/build_info.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: pipeline_bench --workload NAME --seed N "
               "[--trace 0|1] [--pipeline ID] [--horizon S] [--out DIR]\n",
               why);
  std::exit(2);
}

std::uint64_t size_arg(const std::map<std::string, std::string>& args,
                       const std::string& key, std::uint64_t fallback,
                       std::uint64_t lo, std::uint64_t hi) {
  const auto it = args.find(key);
  if (it == args.end()) return fallback;
  std::uint64_t v = 0;
  std::string err;
  if (!scalpel::flags::parse_size(it->second, lo, hi, &v, &err)) {
    usage(("--" + key + ": " + err).c_str());
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) usage("malformed flags");
    args[flag.substr(2)] = argv[i + 1];
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "trace" &&
        key != "pipeline" && key != "horizon" && key != "out") {
      usage(("unknown flag --" + key).c_str());
    }
  }

  const scalpel::perf::BuildInfo build = scalpel::perf::build_info();
  if (!scalpel::perf::timing_trustworthy()) {
    std::fprintf(stderr,
                 "error: refusing to report timings from an %s build\n",
                 build.sanitized ? "instrumented (sanitizer)" : "unoptimized");
    return 2;
  }

  perfbench::PipelineConfig cfg;
  cfg.workload = args.count("workload") ? args.at("workload") : "";
  bool known = false;
  for (const auto& name : perfbench::workload_names()) {
    known = known || name == cfg.workload;
  }
  if (!known) usage(("unknown workload '" + cfg.workload + "'").c_str());
  if (!args.count("seed")) usage("--seed is required");
  cfg.seed = size_arg(args, "seed", 0, 0, ~std::uint64_t{0});
  cfg.traced = size_arg(args, "trace", 0, 0, 1) == 1;
  cfg.pipeline = size_arg(args, "pipeline", 0, 0, ~std::uint64_t{0});
  cfg.out_dir = args.count("out") ? args.at("out") : ".";
  if (args.count("horizon")) {
    std::string err;
    if (!scalpel::flags::parse_double(args.at("horizon"), 1.0, 3600.0,
                                      &cfg.horizon, &err)) {
      usage(("--horizon: " + err).c_str());
    }
  }

  scalpel::Json doc;
  try {
    doc = perfbench::run_pipeline(cfg);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: pipeline %s seed %llu threw: %s\n",
                 cfg.workload.c_str(),
                 static_cast<unsigned long long>(cfg.seed), e.what());
    return 1;
  }
  scalpel::Json jbuild = scalpel::Json::object();
  jbuild.set("optimized", scalpel::Json::boolean(build.optimized));
  jbuild.set("sanitized", scalpel::Json::boolean(build.sanitized));
  jbuild.set("compiler", scalpel::Json::string(build.compiler));
  jbuild.set("cpu", scalpel::Json::string(scalpel::perf::cpu_fingerprint()));
  doc.set("build", std::move(jbuild));
  std::printf("%s\n", doc.dump().c_str());
  return doc.at("correct").as_bool() ? 0 : 1;
}
