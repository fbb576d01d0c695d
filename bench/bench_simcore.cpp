// BENCH_simcore — the tracked perf scoreboard of the simulator inner loop
// and the joint solver (see EXPERIMENTS.md, "P1 simcore perf").
//
//   bench_simcore                         print the report
//   bench_simcore --json FILE             also write it to FILE
//   bench_simcore --check BASELINE        gate against a committed baseline
//   bench_simcore --tolerance 0.15        gate tolerance (default +15%)
//   bench_simcore --scale 0.25            shrink the horizon (quick look;
//                                         NOT comparable to the baseline)
//   bench_simcore --shards 8              shard count for the sharded
//                                         section (0 drops the section)
//   bench_simcore --sweep 1000000         metro-scale sweep up to N devices
//                                         through the sharded engine
//   bench_simcore --inject-slowdown 1.0   gate self-test: spin 1x extra
//
// Exit status: 0 on success/gate pass, 1 on gate fail, 2 on usage error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "perf/baseline.hpp"
#include "perf/build_info.hpp"
#include "perf/simcore_bench.hpp"
#include "util/flags.hpp"

namespace {

using scalpel::Json;
namespace perf = scalpel::perf;

// Strict numeric parsing (util/flags.hpp): garbage, negatives, and trailing
// junk exit 2 with the offending token instead of atoi()-ing to 0.
std::uint64_t parse_size_or_die(const std::string& flag, const char* text,
                                std::uint64_t min_value,
                                std::uint64_t max_value) {
  std::uint64_t value = 0;
  std::string err;
  if (!scalpel::flags::parse_size(text, min_value, max_value, &value, &err)) {
    std::fprintf(stderr, "bench_simcore: %s: %s\n", flag.c_str(), err.c_str());
    std::exit(2);
  }
  return value;
}

double parse_double_or_die(const std::string& flag, const char* text,
                           double min_value, double max_value) {
  double value = 0.0;
  std::string err;
  if (!scalpel::flags::parse_double(text, min_value, max_value, &value,
                                    &err)) {
    std::fprintf(stderr, "bench_simcore: %s: %s\n", flag.c_str(), err.c_str());
    std::exit(2);
  }
  return value;
}

Json load_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_simcore: cannot read %s\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return Json::parse(buf.str());
}

}  // namespace

int main(int argc, char** argv) {
  perf::SimcoreBenchConfig config;
  std::string json_path;
  std::string baseline_path;
  double tolerance = 0.15;
  double scale = 1.0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_simcore: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--json") {
      json_path = next();
    } else if (arg == "--check") {
      baseline_path = next();
    } else if (arg == "--tolerance") {
      tolerance = parse_double_or_die(arg, next(), 1e-9, 100.0);
    } else if (arg == "--reps") {
      config.des_reps = static_cast<std::size_t>(
          parse_size_or_die(arg, next(), 1, 1u << 20));
    } else if (arg == "--scale") {
      scale = parse_double_or_die(arg, next(), 1e-9, 1e6);
    } else if (arg == "--shards") {
      config.shards = static_cast<std::size_t>(
          parse_size_or_die(arg, next(), 0, 4096));
    } else if (arg == "--sweep") {
      config.sweep_max_devices = static_cast<std::size_t>(
          parse_size_or_die(arg, next(), 1, 1u << 30));
    } else if (arg == "--inject-slowdown") {
      config.inject_slowdown = parse_double_or_die(arg, next(), 0.0, 1e3);
    } else {
      std::fprintf(stderr, "bench_simcore: unknown flag %s\n", arg.c_str());
      return 2;
    }
  }
  if (scale != 1.0) {
    if (scale <= 0.0) {
      std::fprintf(stderr, "bench_simcore: --scale must be positive\n");
      return 2;
    }
    config.horizon *= scale;
    config.warmup *= scale;
    config.sweep_horizon *= scale;
  }

  if (!perf::timing_trustworthy()) {
    std::fprintf(stderr,
                 "bench_simcore: WARNING — unoptimized or sanitizer build; "
                 "timings below are NOT comparable to the baseline and the "
                 "report is flagged \"unoptimized\": true\n");
  }

  const Json report = perf::run_simcore_bench(config);
  std::printf("%s\n", report.dump_pretty().c_str());

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "bench_simcore: cannot write %s\n",
                   json_path.c_str());
      return 2;
    }
    out << report.dump_pretty() << "\n";
  }

  if (!baseline_path.empty()) {
    const Json baseline = load_json(baseline_path);
    const perf::GateResult gate =
        perf::check_regression(baseline, report, tolerance);
    std::printf("gate: %s\n", gate.message.c_str());
    return gate.passed ? 0 : 1;
  }
  return 0;
}
