// scalpel_cli — file-driven front end to the library: generate cluster
// configs, optimize them with any scheme, and simulate decisions, all
// through JSON files so the pieces compose in shell pipelines.
//
//   scalpel_cli topology --preset small_lab --out topo.json
//   scalpel_cli topology --preset campus --devices 24 --servers 4
//       --seed 7 --out topo.json
//   scalpel_cli optimize --topology topo.json --scheme joint
//       --out decision.json
//   scalpel_cli simulate --topology topo.json --decision decision.json
//       --horizon 60 --reps 16 --threads 8
//   scalpel_cli admission --topology topo.json [--decision decision.json]
//       --headroom 0.9
//   scalpel_cli trace --topology topo.json --decision decision.json
//       --overload 2.0 --out trace.json --audit-out audit.json
//       --metrics-out metrics.json
//   scalpel_cli validate-trace --trace trace.json --metrics metrics.json
//   scalpel_cli distributed --topology topo.json --drop 0.2 --coord-mtbf 10
//   scalpel_cli models
//
// Each command accepts only the flags it reads (kCommands); any other flag
// exits 2 with a one-line error, as a malformed number does.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/admission.hpp"
#include "core/joint.hpp"
#include "ctrl/plane.hpp"
#include "core/objective.hpp"
#include "core/online.hpp"
#include "core/serialize.hpp"
#include "edge/builders.hpp"
#include "nn/models.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/metrics_export.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"
#include "util/flags.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace scalpel;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  scalpel_cli topology --preset small_lab|campus "
               "[--devices N] [--servers M] [--seed S] --out FILE\n"
               "  scalpel_cli optimize --topology FILE "
               "[--scheme joint|device_only|edge_only|neurosurgeon|"
               "local_multi_exit|random] --out FILE\n"
               "  scalpel_cli simulate --topology FILE --decision FILE "
               "[--horizon SECONDS] [--warmup SECONDS] [--seed S] "
               "[--reps N] [--threads T] "
               "[--metrics-out FILE(.json|.csv)]\n"
               "  scalpel_cli admission --topology FILE [--decision FILE] "
               "[--scheme joint|...] [--headroom H]\n"
               "  scalpel_cli trace --topology FILE [--decision FILE] "
               "--out FILE(.json|.csv) [--overload F] [--controller on|off] "
               "[--horizon S] [--warmup S] [--seed S] [--capacity N] "
               "[--audit-out FILE(.json|.csv)] [--metrics-out FILE]\n"
               "  scalpel_cli validate-trace --trace FILE.json "
               "--metrics FILE.json\n"
               "  scalpel_cli distributed --topology FILE [--ticks N] "
               "[--delay S] [--jitter S] [--drop P] [--coord-mtbf S] "
               "[--coord-mttr S] [--horizon S] [--seed S] "
               "[--span-capacity N] [--obs-interval S] [--capacity N] "
               "[--audit-out FILE(.json|.csv)] [--trace-out FILE.json] "
               "[--metrics-out FILE(.json|.csv)] "
               "[--timeseries-out FILE(.json|.csv)]\n"
               "  scalpel_cli obs-report [--topology FILE] [--horizon S] "
               "[--seed S] [--overload F] [--drop P] [--delay S] "
               "[--jitter S] [--coord-mtbf S] [--coord-mttr S] "
               "[--obs-interval S] [--span-capacity N] [--capacity N] "
               "[--trace-out FILE.json] [--timeseries-out FILE(.json|.csv)] "
               "[--metrics-out FILE(.json|.csv)] "
               "[--audit-out FILE(.json|.csv)]\n"
               "  scalpel_cli models\n");
  std::exit(2);
}

using Flags = std::map<std::string, std::string>;

// Parses the "--key value" pairs after the command name. A key the command
// does not read dies with a one-line reason (exit 2) instead of running with
// the defaults, so a typo or a retired flag never goes unnoticed.
Flags parse_flags(int argc, char** argv, const std::string& command,
                  const std::vector<std::string>& accepted) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0 || i + 1 >= argc) usage();
    const std::string key = arg.substr(2);
    if (std::find(accepted.begin(), accepted.end(), key) == accepted.end()) {
      std::fprintf(stderr, "error: --%s: unknown flag for %s\n", key.c_str(),
                   command.c_str());
      std::exit(2);
    }
    flags[key] = argv[++i];
  }
  return flags;
}

std::string flag_or(const Flags& flags,
                    const std::string& key, const std::string& fallback) {
  const auto it = flags.find(key);
  return it == flags.end() ? fallback : it->second;
}

// Numeric flags go through the strict whole-token parser (util/flags.hpp):
// "--reps -3", "--threads 8x", and "--tolerance banana" all die with a
// one-line reason and exit 2 instead of wrapping through unsigned conversion
// or silently becoming 0.
constexpr std::uint64_t kNoSizeLimit =
    std::numeric_limits<std::uint64_t>::max();
constexpr double kNoDoubleLimit = std::numeric_limits<double>::infinity();

std::uint64_t size_flag(const Flags& flags,
                        const std::string& key, std::uint64_t fallback,
                        std::uint64_t min_value,
                        std::uint64_t max_value = kNoSizeLimit) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  std::uint64_t value = 0;
  std::string err;
  if (!scalpel::flags::parse_size(it->second, min_value, max_value, &value,
                                  &err)) {
    std::fprintf(stderr, "error: --%s: %s\n", key.c_str(), err.c_str());
    std::exit(2);
  }
  return value;
}

double double_flag(const Flags& flags,
                   const std::string& key, double fallback, double min_value,
                   double max_value = kNoDoubleLimit) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  double value = 0.0;
  std::string err;
  if (!scalpel::flags::parse_double(it->second, min_value, max_value, &value,
                                    &err)) {
    std::fprintf(stderr, "error: --%s: %s\n", key.c_str(), err.c_str());
    std::exit(2);
  }
  return value;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot read %s\n", path.c_str());
    std::exit(1);
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

void write_file(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out << content;
}

int cmd_topology(const Flags& flags) {
  const std::string preset = flag_or(flags, "preset", "small_lab");
  ClusterTopology topo;
  if (preset == "small_lab") {
    topo = clusters::small_lab();
  } else if (preset == "campus") {
    clusters::CampusOptions opts;
    opts.num_devices =
        static_cast<std::size_t>(size_flag(flags, "devices", 24, 1, 1u << 20));
    opts.num_servers =
        static_cast<std::size_t>(size_flag(flags, "servers", 4, 1, 1u << 16));
    opts.seed = size_flag(flags, "seed", 42, 0);
    topo = clusters::campus(opts);
  } else {
    std::fprintf(stderr, "error: unknown preset %s\n", preset.c_str());
    return 1;
  }
  const std::string out = flag_or(flags, "out", "");
  if (out.empty()) usage();
  write_file(out, serialize::to_json(topo).dump_pretty() + "\n");
  std::printf("wrote %s (%zu devices, %zu servers, %zu cells)\n", out.c_str(),
              topo.devices().size(), topo.servers().size(),
              topo.cells().size());
  return 0;
}

int cmd_optimize(const Flags& flags) {
  const std::string topo_path = flag_or(flags, "topology", "");
  const std::string out = flag_or(flags, "out", "");
  if (topo_path.empty() || out.empty()) usage();
  const auto topo =
      serialize::topology_from_json(Json::parse(read_file(topo_path)));
  const ProblemInstance instance(topo);

  const std::string scheme = flag_or(flags, "scheme", "joint");
  Decision decision;
  if (scheme == "joint") {
    JointReport report;
    decision = JointOptimizer(JointOptions{}).optimize(instance, &report);
    std::printf("joint solve: %.2fs, %zu rounds\n", report.solve_seconds,
                report.iterations);
  } else {
    decision = baselines::by_name(instance, scheme);
  }
  write_file(out, serialize::to_json(decision).dump_pretty() + "\n");
  std::printf("scheme=%s mean_latency=%s deadline_sat=%.3f -> %s\n",
              decision.scheme.c_str(),
              std::isfinite(decision.mean_latency)
                  ? (std::to_string(to_ms(decision.mean_latency)) + " ms")
                        .c_str()
                  : "unstable",
              predicted_deadline_satisfaction(instance, decision),
              out.c_str());
  return 0;
}

int cmd_simulate(const Flags& flags) {
  const std::string topo_path = flag_or(flags, "topology", "");
  const std::string decision_path = flag_or(flags, "decision", "");
  if (topo_path.empty() || decision_path.empty()) usage();

  // All numeric flags are validated before any file I/O so a typo'd command
  // fails on the typo, not on whatever half-built state came first.
  Simulator::Options opts;
  opts.horizon = double_flag(flags, "horizon", 60.0, 1e-6);
  opts.warmup = double_flag(flags, "warmup", opts.horizon * 0.1, 0.0);
  opts.seed = size_flag(flags, "seed", 1, 0);
  const auto reps =
      static_cast<std::size_t>(size_flag(flags, "reps", 1, 1, 1u << 20));
  // --threads 0 is an error (what would zero workers mean?); the flag being
  // absent means "one worker per hardware core".
  const auto threads =
      static_cast<std::size_t>(size_flag(flags, "threads", 0, 1, 4096));

  const auto topo =
      serialize::topology_from_json(Json::parse(read_file(topo_path)));
  const ProblemInstance instance(topo);
  Decision decision =
      serialize::decision_from_json(Json::parse(read_file(decision_path)));
  evaluate_decision(instance, decision);

  const std::string metrics_out = flag_or(flags, "metrics-out", "");

  if (reps <= 1) {
    Simulator sim(instance, decision, opts);
    const auto m = sim.run();
    std::printf("completed=%zu mean=%.2fms p95=%.2fms p99=%.2fms "
                "deadline_sat=%.3f accuracy=%.3f offload=%.2f "
                "energy=%.1fmJ/task\n",
                m.completed, to_ms(m.latency.mean()), to_ms(m.latency.p95()),
                to_ms(m.latency.p99()), m.deadline_satisfaction,
                m.measured_accuracy, m.offload_fraction,
                m.mean_task_energy * 1e3);
    if (!metrics_out.empty()) {
      if (!write_sim_metrics(m, metrics_out)) return 1;
      std::printf("wrote metrics to %s\n", metrics_out.c_str());
    }
    return 0;
  }

  // Replicated run: deterministic per-replication substreams, aggregated
  // into mean ± 95% CI (bit-identical for any --threads value).
  ScenarioRunner::Options ro;
  ro.replications = reps;
  ro.threads = threads;
  ro.sim = opts;
  const auto agg = ScenarioRunner(instance, decision, ro).run();
  const auto mean = summarize(agg.mean_latency);
  const auto p95 = summarize(agg.p95_latency);
  const auto p99 = summarize(agg.p99_latency);
  const auto sat = summarize(agg.deadline_satisfaction);
  const auto acc = summarize(agg.accuracy);
  const auto off = summarize(agg.offload_fraction);
  const auto energy = summarize(agg.task_energy);
  std::printf("reps=%zu completed=%zu mean=%.2f±%.2fms p95=%.2f±%.2fms "
              "p99=%.2f±%.2fms deadline_sat=%.3f±%.3f accuracy=%.3f±%.3f "
              "offload=%.2f±%.2f energy=%.1f±%.1fmJ/task\n",
              reps, agg.completed, to_ms(mean.mean), to_ms(mean.ci95),
              to_ms(p95.mean), to_ms(p95.ci95), to_ms(p99.mean),
              to_ms(p99.ci95), sat.mean, sat.ci95, acc.mean, acc.ci95,
              off.mean, off.ci95, energy.mean * 1e3, energy.ci95 * 1e3);
  if (!metrics_out.empty()) {
    if (metrics_out.ends_with(".csv")) {
      // One row of headline scalars per replication; the full nested detail
      // needs the JSON form.
      Table t({"rep", "arrived", "completed", "failed", "shed", "expired",
               "mean_latency_s", "p95_s", "p99_s", "deadline_sat",
               "accuracy"});
      for (std::size_t r = 0; r < agg.replications.size(); ++r) {
        const auto& m = agg.replications[r];
        t.add_row({Table::num(static_cast<std::int64_t>(r)),
                   Table::num(static_cast<std::int64_t>(m.arrived)),
                   Table::num(static_cast<std::int64_t>(m.completed)),
                   Table::num(static_cast<std::int64_t>(m.failed)),
                   Table::num(static_cast<std::int64_t>(m.shed)),
                   Table::num(static_cast<std::int64_t>(m.expired)),
                   Table::num(m.latency.empty() ? 0.0 : m.latency.mean(), 6),
                   Table::num(m.latency.empty() ? 0.0 : m.latency.p95(), 6),
                   Table::num(m.latency.empty() ? 0.0 : m.latency.p99(), 6),
                   Table::num(m.deadline_satisfaction, 4),
                   Table::num(m.measured_accuracy, 4)});
      }
      write_file(metrics_out, t.to_csv());
    } else {
      write_file(metrics_out,
                 replicated_metrics_to_json(agg).dump_pretty() + "\n");
    }
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  return 0;
}

// Admission report: how much load each device can sustain under a decision,
// what the cluster-level throttle plan would admit, and the precomputed
// surgery-based degradation ladder the online controller would walk under
// sustained overload.
int cmd_admission(const Flags& flags) {
  const std::string topo_path = flag_or(flags, "topology", "");
  if (topo_path.empty()) usage();
  const auto topo =
      serialize::topology_from_json(Json::parse(read_file(topo_path)));
  const ProblemInstance instance(topo);

  Decision decision;
  const std::string decision_path = flag_or(flags, "decision", "");
  if (!decision_path.empty()) {
    decision =
        serialize::decision_from_json(Json::parse(read_file(decision_path)));
    evaluate_decision(instance, decision);
  } else {
    const std::string scheme = flag_or(flags, "scheme", "joint");
    decision = scheme == "joint"
                   ? JointOptimizer(JointOptions{}).optimize(instance)
                   : baselines::by_name(instance, scheme);
  }
  const double headroom = double_flag(flags, "headroom", 0.9, 1e-6, 1.0);

  std::printf("admission report for scheme=%s (headroom %.2f)\n\n",
              decision.scheme.c_str(), headroom);
  const auto plan = admission::propose_throttle(instance, decision, headroom);
  Table load({"device", "offered /s", "sustainable /s", "admitted /s",
              "admit frac"});
  for (std::size_t i = 0; i < decision.per_device.size(); ++i) {
    const auto id = static_cast<DeviceId>(i);
    const auto& dev = topo.device(id);
    const double sustainable = admission::max_sustainable_rate(
        instance, id, decision.per_device[i], 1.0);
    load.add_row({dev.name, Table::num(dev.arrival_rate, 2),
                  Table::num(sustainable, 2),
                  Table::num(plan.admitted_rate[i], 2),
                  Table::num(dev.arrival_rate > 0.0
                                 ? plan.admitted_rate[i] / dev.arrival_rate
                                 : 1.0,
                             3)});
  }
  std::printf("%s\n", load.to_string().c_str());
  std::printf("throttle plan: %s\n\n",
              plan.throttled ? "throttled" : "all load admitted");

  const auto ladder =
      build_degradation_ladder(instance, decision, JointOptions{});
  std::printf("degradation ladder (rung 0 = deployed plan):\n");
  Table lt({"rung", "accuracy floor", "predicted accuracy",
            "min sustainable /s", "quantized uploads"});
  for (std::size_t k = 0; k < ladder.size(); ++k) {
    double min_sustain = 1e18;
    bool quantized = false;
    for (std::size_t i = 0; i < ladder[k].plans.size(); ++i) {
      min_sustain = std::min(min_sustain, ladder[k].sustainable[i]);
      quantized = quantized || ladder[k].plans[i].quantize_upload;
    }
    lt.add_row({Table::num(static_cast<std::int64_t>(k)),
                Table::num(ladder[k].accuracy_floor, 3),
                Table::num(ladder[k].predicted_accuracy, 3),
                std::isfinite(min_sustain) ? Table::num(min_sustain, 2)
                                           : "unbounded",
                quantized ? "yes" : "no"});
  }
  std::printf("%s\n", lt.to_string().c_str());
  return 0;
}

// One traced simulation run: per-task lifecycle events to a Chrome-trace
// JSON (or CSV), plus optionally the controller's decision audit log and the
// full SimMetrics, all reconcilable against each other. `--overload F`
// multiplies every device's arrival rate while the controller stays anchored
// to the nominal topology — the F17 setup — so an overload run's rung walk
// is visible in both the audit log and the event stream.
int cmd_trace(const Flags& flags) {
  const std::string topo_path = flag_or(flags, "topology", "");
  const std::string out = flag_or(flags, "out", "");
  if (topo_path.empty() || out.empty()) usage();
  const auto deployed_topo =
      serialize::topology_from_json(Json::parse(read_file(topo_path)));

  const double overload = double_flag(flags, "overload", 1.0, 1e-6, 1e3);
  ClusterTopology offered_topo = deployed_topo;
  if (overload != 1.0) {
    for (const auto& d : deployed_topo.devices()) {
      offered_topo.set_device_arrival_rate(d.id,
                                           d.arrival_rate * overload);
    }
  }
  const ProblemInstance instance(offered_topo);

  Simulator::Options opts;
  opts.horizon = double_flag(flags, "horizon", 60.0, 1e-6);
  opts.warmup = double_flag(flags, "warmup", opts.horizon * 0.1, 0.0);
  opts.seed = size_flag(flags, "seed", 1, 0);
  opts.trace_capacity = static_cast<std::size_t>(
      size_flag(flags, "capacity", 1048576, 1, 1u << 28));
  const bool with_controller = flag_or(flags, "controller", "on") == "on";

  Decision decision;
  const std::string decision_path = flag_or(flags, "decision", "");
  OnlineController ctl(deployed_topo);
  if (with_controller) {
    // Bounded queues + expiry shedding so the ladder has something to save.
    opts.overload.policy = OverloadPolicy::ShedExpired;
    opts.overload.device_queue_limit = 32;
    opts.overload.upload_queue_limit = 8;
    opts.overload.server_queue_limit = 8;
    opts.control_interval = 1.0;
    decision = ctl.decision();
  } else if (!decision_path.empty()) {
    decision =
        serialize::decision_from_json(Json::parse(read_file(decision_path)));
  } else {
    decision = JointOptimizer(JointOptions{}).optimize(instance);
  }
  evaluate_decision(instance, decision);

  Simulator sim(instance, decision, opts);
  if (with_controller) {
    sim.set_controller(ctl.callback());  // o.time advances the audit clock
  }
  const auto m = sim.run();

  if (!write_trace(sim.trace(), out)) return 1;
  std::printf("wrote %llu events to %s (%llu overwritten in the ring)\n",
              static_cast<unsigned long long>(sim.trace().size()),
              out.c_str(),
              static_cast<unsigned long long>(sim.trace().dropped()));
  std::printf("conservation: arrived=%zu completed_all=%zu failed_all=%zu "
              "shed_all=%zu in_flight_end=%zu\n",
              m.arrived, m.completed_all, m.failed_all, m.shed_all,
              m.in_flight_end);
  if (with_controller) {
    std::printf("controller: %zu audit records, %zu reoptimizations, "
                "%zu degradations, %zu recoveries, final rung %zu\n",
                ctl.audit_log().size(), ctl.reoptimizations(),
                ctl.degradations(), ctl.recoveries(), ctl.current_rung());
    const std::string audit_out = flag_or(flags, "audit-out", "");
    if (!audit_out.empty()) {
      if (!ctl.audit_log().write(audit_out)) {
        std::fprintf(stderr, "error: cannot write %s\n", audit_out.c_str());
        return 1;
      }
      std::printf("wrote audit log to %s\n", audit_out.c_str());
    }
  }
  const std::string metrics_out = flag_or(flags, "metrics-out", "");
  if (!metrics_out.empty()) {
    if (!write_sim_metrics(m, metrics_out)) return 1;
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  return 0;
}

// Round-trips an exported trace + metrics pair through the JSON parser and
// checks that the per-task events reconcile exactly with the simulator's
// conservation counters. A merged trace (control-plane spans spliced next to
// the task events) additionally reconciles the span stream against the
// ctrl.* counters in the metrics file. Exit 0 = PASS; used by ci.sh's fast
// tier.
int cmd_validate_trace(const Flags& flags) {
  const std::string trace_path = flag_or(flags, "trace", "");
  const std::string metrics_path = flag_or(flags, "metrics", "");
  if (trace_path.empty() || metrics_path.empty()) usage();
  const Json trace = Json::parse(read_file(trace_path));
  const Json metrics = Json::parse(read_file(metrics_path));

  if (trace.contains("droppedEvents") &&
      trace.at("droppedEvents").as_int() != 0) {
    std::fprintf(stderr,
                 "FAIL: trace is truncated (%lld events overwritten); "
                 "re-record with a larger --capacity\n",
                 static_cast<long long>(trace.at("droppedEvents").as_int()));
    return 1;
  }
  if (trace.contains("droppedSpans") &&
      trace.at("droppedSpans").as_int() != 0) {
    std::fprintf(stderr,
                 "FAIL: control-plane spans truncated (%lld overwritten); "
                 "re-record with a larger --span-capacity\n",
                 static_cast<long long>(trace.at("droppedSpans").as_int()));
    return 1;
  }

  std::map<std::string, std::int64_t> counts;
  std::map<std::string, std::int64_t> span_counts;
  std::int64_t span_events = 0;
  const Json& events = trace.at("traceEvents");
  for (std::size_t i = 0; i < events.size(); ++i) {
    const Json& args = events.at(i).at("args");
    // Control-plane spans carry args.span (and a correlation id); task
    // lifecycle events carry args.event even for B/E span phases.
    if (args.contains("span")) {
      ++span_counts[args.at("span").as_string()];
      ++span_events;
      continue;
    }
    ++counts[args.at("event").as_string()];
  }
  auto count = [&](const char* name) {
    const auto it = counts.find(name);
    return it == counts.end() ? std::int64_t{0} : it->second;
  };

  const Json& c = metrics.at("conservation");
  const std::int64_t arrived = c.at("arrived").as_int();
  const std::int64_t completed = c.at("completed_all").as_int();
  const std::int64_t failed = c.at("failed_all").as_int();
  const std::int64_t shed = c.at("shed_all").as_int();
  const std::int64_t in_flight = c.at("in_flight_end").as_int();

  bool ok = true;
  auto check = [&](const char* what, std::int64_t got, std::int64_t want) {
    if (got != want) {
      std::fprintf(stderr, "FAIL: %s: trace says %lld, metrics say %lld\n",
                   what, static_cast<long long>(got),
                   static_cast<long long>(want));
      ok = false;
    }
  };
  check("arrived", count("arrive"), arrived);
  check("completed_all", count("complete"), completed);
  check("failed_all", count("fail"), failed);
  check("shed_all", count("shed") + count("expire"), shed);
  check("terminal events",
        count("complete") + count("fail") + count("shed") + count("expire") +
            in_flight,
        count("arrive"));
  if (arrived != completed + failed + shed + in_flight) {
    std::fprintf(stderr,
                 "FAIL: metrics conservation broken: %lld != %lld + %lld + "
                 "%lld + %lld\n",
                 static_cast<long long>(arrived),
                 static_cast<long long>(completed),
                 static_cast<long long>(failed), static_cast<long long>(shed),
                 static_cast<long long>(in_flight));
    ok = false;
  }
  // Control-plane reconciliation, when both sides carry it: span stream vs
  // the ctrl.* counters published by the plane, plus the fabric conservation
  // law (#sent == #dropped + #delivered + #dead_letter + in_flight).
  if (span_events > 0 && metrics.contains("ctrl")) {
    const Json& ctrl = metrics.at("ctrl").at("counters");
    auto span_count = [&](const char* name) {
      const auto it = span_counts.find(name);
      return it == span_counts.end() ? std::int64_t{0} : it->second;
    };
    auto ctr = [&](const char* name) {
      return ctrl.contains(name) ? ctrl.at(name).as_int() : std::int64_t{0};
    };
    const std::int64_t fabric_in_flight =
        metrics.at("ctrl").at("gauges").contains("ctrl.in_flight")
            ? static_cast<std::int64_t>(metrics.at("ctrl")
                                            .at("gauges")
                                            .at("ctrl.in_flight")
                                            .as_number())
            : 0;
    check("ctrl sent spans", span_count("sent"), ctr("ctrl.msg.sent"));
    check("ctrl delivered spans", span_count("delivered"),
          ctr("ctrl.msg.delivered"));
    check("ctrl dropped spans", span_count("dropped"),
          ctr("ctrl.msg.dropped"));
    check("ctrl dead-letter spans", span_count("dead_letter"),
          ctr("ctrl.msg.dropped_dead") + ctr("ctrl.dead_letters"));
    check("ctrl adopted spans", span_count("adopted"),
          ctr("ctrl.adoptions"));
    check("ctrl stale-rejection spans", span_count("rejected_stale"),
          ctr("ctrl.epochs_rejected"));
    check("ctrl re-grant spans", span_count("regrant"),
          ctr("ctrl.regrants"));
    // Fabric-level conservation: routing dead letters (a down recipient
    // after a successful delivery) already appear as delivered spans, so
    // only the fabric-side share (queue wiped with a dead endpoint) joins
    // the outcome sum.
    check("ctrl fabric conservation", span_count("sent"),
          span_count("dropped") + span_count("delivered") +
              ctr("ctrl.msg.dropped_dead") + fabric_in_flight);
    if (!ok) return 1;
  }
  if (!ok) return 1;
  std::printf("PASS: %zu trace events reconcile with the conservation "
              "counters (arrived=%lld completed=%lld failed=%lld shed=%lld "
              "in_flight_end=%lld",
              events.size(), static_cast<long long>(arrived),
              static_cast<long long>(completed),
              static_cast<long long>(failed), static_cast<long long>(shed),
              static_cast<long long>(in_flight));
  if (span_events > 0) {
    std::printf("; %lld control-plane spans reconcile with the ctrl.* "
                "counters",
                static_cast<long long>(span_events));
  }
  std::printf(")\n");
  return 0;
}

// Distributed control-plane report: convergence of the per-cell controllers
// over a lossy fabric (part 1), then a failover DES where the coordinator
// endpoint itself crashes on an MTBF/MTTR process and the cells fall back to
// validated local autonomy (part 2). Exercises src/ctrl end to end from the
// command line; the chaos CI slice smoke-tests it.
int cmd_distributed(const Flags& flags) {
  const std::string topo_path = flag_or(flags, "topology", "");
  if (topo_path.empty()) usage();
  // All numeric flags are validated before any file I/O (same contract as
  // cmd_simulate: a typo'd command fails on the typo).
  const auto ticks =
      static_cast<int>(size_flag(flags, "ticks", 40, 1, 1u << 20));
  const double delay = double_flag(flags, "delay", 0.2, 0.0, 1e3);
  const double jitter = double_flag(flags, "jitter", 0.5, 0.0, 1e3);
  const double drop = double_flag(flags, "drop", 0.05, 0.0, 0.999);
  const double coord_mtbf = double_flag(flags, "coord-mtbf", 10.0, 0.0, 1e9);
  const double coord_mttr = double_flag(flags, "coord-mttr", 4.0, 1e-6, 1e9);
  const double horizon = double_flag(flags, "horizon", 60.0, 1e-6);
  const std::uint64_t seed = size_flag(flags, "seed", 19, 0);
  const auto span_capacity = static_cast<std::size_t>(
      size_flag(flags, "span-capacity", 1u << 16, 1, 1u << 26));
  const double obs_interval =
      double_flag(flags, "obs-interval", 0.5, 1e-6, 1.0);
  const std::string audit_out = flag_or(flags, "audit-out", "");
  const std::string trace_out = flag_or(flags, "trace-out", "");
  const std::string metrics_out = flag_or(flags, "metrics-out", "");
  const std::string timeseries_out = flag_or(flags, "timeseries-out", "");

  const auto topo =
      serialize::topology_from_json(Json::parse(read_file(topo_path)));
  const ProblemInstance instance(topo);

  // Same optimizer budget for the centralized reference and the cells'
  // local solves, so the reported gap is a fair protocol cost.
  JointOptions joint;
  joint.max_iterations = 2;
  joint.dp_coverage_bins = 40;
  joint.theta_grid = {0.0, 0.3, 0.6};
  Decision central = JointOptimizer(joint).optimize(instance);
  evaluate_decision(instance, central);

  ControlFabricOptions fabric;
  fabric.delay = delay;
  fabric.jitter = jitter;
  fabric.drop_prob = drop;
  auto make_opts = [&](FaultSchedule faults) {
    DistributedPlaneOptions po;
    po.fabric = fabric;
    po.cell.joint = joint;
    po.controller_faults = std::move(faults);
    po.seed = seed;
    po.span_capacity = span_capacity;
    return po;
  };
  auto observe = [&](double t) {
    Observation o;
    o.time = t;
    for (const auto& cell : topo.cells()) {
      o.cell_bandwidth.push_back(cell.bandwidth);
    }
    o.server_alive.assign(topo.servers().size(), true);
    return o;
  };

  // Part 1: static workload; how fast does tatonnement settle and how close
  // is the merged plan to the centralized solve?
  DistributedControlPlane plane(topo, make_opts({}));
  int converged_at = -1;
  for (int t = 0; t < ticks; ++t) {
    (void)plane.tick(observe(static_cast<double>(t)));
    if (converged_at < 0 && plane.converged()) converged_at = t;
  }
  Decision merged = plane.merged();
  evaluate_decision(instance, merged);
  const double gap = merged.mean_latency / central.mean_latency - 1.0;
  std::printf(
      "convergence: fabric delay=%.2fs jitter=%.2fs drop=%.2f over %d "
      "ticks\n  converged=%s epoch=%llu rounds=%llu msgs "
      "sent=%llu dropped=%llu\n  merged-plan gap vs centralized: %.2f%%\n",
      delay, jitter, drop, ticks, converged_at < 0 ? "NO" : "yes",
      static_cast<unsigned long long>(plane.coordinator().epoch()),
      static_cast<unsigned long long>(plane.coordinator().realloc_rounds()),
      static_cast<unsigned long long>(plane.fabric().sent()),
      static_cast<unsigned long long>(plane.fabric().dropped()),
      100.0 * gap);
  if (converged_at >= 0) {
    std::printf("  first fully-adopted epoch at tick %d\n", converged_at);
  }

  // Part 2: DES failover — the coordinator endpoint crashes; the cells keep
  // steering on local autonomy and must beat the frozen plan's deadline sat.
  Simulator::Options so;
  so.horizon = horizon;
  so.warmup = horizon * 0.1;
  so.seed = seed + 1;
  so.control_interval = 1.0;
  Simulator frozen_sim(instance, central, so);
  const SimMetrics frozen = frozen_sim.run();

  FaultSchedule coord_faults;
  if (coord_mtbf > 0.0) {
    coord_faults = FaultSchedule::exponential_servers(
        1, coord_mtbf, coord_mttr, horizon, Rng(seed + 2));
  }
  if (!trace_out.empty()) {
    so.trace_capacity = static_cast<std::size_t>(
        size_flag(flags, "capacity", 1048576, 1, 1u << 28));
  }
  DistributedControlPlane chaos(topo, make_opts(std::move(coord_faults)));
  TimeSeriesRecorder recorder(1u << 16);
  if (!timeseries_out.empty()) {
    chaos.register_sources(recorder);
    so.obs_interval = obs_interval;
    so.recorder = &recorder;
  }
  Simulator sim(instance, central, so);
  sim.set_controller(chaos.callback());
  const SimMetrics m = sim.run();
  std::printf(
      "failover: coordinator MTBF=%s MTTR=%.1fs over %.0fs horizon\n"
      "  deadline sat %.3f (frozen centralized plan: %.3f)\n"
      "  coordinator crashes=%llu losses=%llu rejoins=%llu local "
      "solves=%llu\n  stale-price events=%llu epochs rejected=%llu dead "
      "letters=%llu\n",
      coord_mtbf > 0.0 ? (Table::num(coord_mtbf, 1) + "s").c_str()
                       : "off",
      coord_mttr, horizon, m.deadline_satisfaction,
      frozen.deadline_satisfaction,
      static_cast<unsigned long long>(chaos.coordinator_crashes()),
      static_cast<unsigned long long>(chaos.coordinator_losses()),
      static_cast<unsigned long long>(chaos.rejoins()),
      static_cast<unsigned long long>(chaos.local_solves()),
      static_cast<unsigned long long>(chaos.stale_events()),
      static_cast<unsigned long long>(chaos.epochs_rejected()),
      static_cast<unsigned long long>(chaos.dead_letters()));

  if (!audit_out.empty()) {
    if (!chaos.audit_log().write(audit_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", audit_out.c_str());
      return 1;
    }
    std::printf("wrote %zu audit records to %s\n", chaos.audit_log().size(),
                audit_out.c_str());
  }
  if (!trace_out.empty()) {
    if (!write_merged_trace(trace_out, sim.trace(), chaos.ctrl_trace())) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote %zu task events + %zu control-plane spans to %s\n",
                sim.trace().size(), chaos.ctrl_trace().size(),
                trace_out.c_str());
  }
  if (!metrics_out.empty()) {
    if (metrics_out.ends_with(".csv")) {
      if (!write_sim_metrics(m, metrics_out)) return 1;
    } else {
      Json doc = sim_metrics_to_json(m);
      MetricsRegistry ctrl_registry;
      chaos.publish_metrics(ctrl_registry);
      doc.set("ctrl", ctrl_registry.to_json());
      write_file(metrics_out, doc.dump_pretty() + "\n");
    }
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  if (!timeseries_out.empty()) {
    if (!recorder.write(timeseries_out)) return 1;
    std::printf("wrote %zu time-series samples to %s\n", recorder.size(),
                timeseries_out.c_str());
  }
  return 0;
}

// One-stop observability report: a lossy-fabric distributed failover run
// with causal span tracing, windowed time-series telemetry, and SLO
// burn-rate monitoring all enabled. Emits a single Chrome trace with task
// events and control-plane spans on the shared clock (grant minted -> lost
// -> re-granted via anti-entropy -> adopted, reconstructable per correlation
// id), the sampled time series, and a metrics file whose ctrl.* section
// reconciles with the span stream — the triple validate-trace checks.
int cmd_obs_report(const Flags& flags) {
  const double horizon = double_flag(flags, "horizon", 24.0, 1e-6);
  const std::uint64_t seed = size_flag(flags, "seed", 19, 0);
  const double overload = double_flag(flags, "overload", 1.0, 1e-6, 1e3);
  const double drop = double_flag(flags, "drop", 0.15, 0.0, 0.999);
  const double delay = double_flag(flags, "delay", 0.05, 0.0, 1e3);
  const double jitter = double_flag(flags, "jitter", 0.1, 0.0, 1e3);
  const double coord_mtbf = double_flag(flags, "coord-mtbf", 6.0, 0.0, 1e9);
  const double coord_mttr = double_flag(flags, "coord-mttr", 2.0, 1e-6, 1e9);
  const double obs_interval =
      double_flag(flags, "obs-interval", 0.5, 1e-6, 1.0);
  const auto span_capacity = static_cast<std::size_t>(
      size_flag(flags, "span-capacity", 1u << 16, 1, 1u << 26));
  const auto capacity = static_cast<std::size_t>(
      size_flag(flags, "capacity", 1048576, 1, 1u << 28));
  const std::string trace_out = flag_or(flags, "trace-out", "");
  const std::string timeseries_out = flag_or(flags, "timeseries-out", "");
  const std::string metrics_out = flag_or(flags, "metrics-out", "");
  const std::string audit_out = flag_or(flags, "audit-out", "");

  const std::string topo_path = flag_or(flags, "topology", "");
  ClusterTopology topo = topo_path.empty()
                             ? clusters::small_lab()
                             : serialize::topology_from_json(
                                   Json::parse(read_file(topo_path)));
  if (overload != 1.0) {
    const auto devices = topo.devices();  // copy: the loop mutates topo
    for (const auto& d : devices) {
      topo.set_device_arrival_rate(d.id, d.arrival_rate * overload);
    }
  }
  const ProblemInstance instance(topo);

  JointOptions joint;
  joint.max_iterations = 2;
  joint.dp_coverage_bins = 40;
  joint.theta_grid = {0.0, 0.3, 0.6};
  Decision central = JointOptimizer(joint).optimize(instance);
  evaluate_decision(instance, central);

  DistributedPlaneOptions po;
  po.fabric.delay = delay;
  po.fabric.jitter = jitter;
  po.fabric.drop_prob = drop;
  po.cell.joint = joint;
  po.seed = seed;
  po.span_capacity = span_capacity;
  if (coord_mtbf > 0.0) {
    po.controller_faults = FaultSchedule::exponential_servers(
        1, coord_mtbf, coord_mttr, horizon, Rng(seed + 2));
  }
  DistributedControlPlane plane(topo, std::move(po));

  TimeSeriesRecorder recorder(1u << 16);
  plane.register_sources(recorder);
  SloMonitor slo(&recorder, &plane.audit_log());
  SloSpec spec;
  spec.name = "deadline";
  spec.good = "sim.deadline_met";
  spec.total = "sim.deadline_total";
  spec.objective = 0.9;
  spec.windows = {{10.0, 1.0}, {60.0, 0.5}};
  slo.add(spec);

  Simulator::Options so;
  so.horizon = horizon;
  so.warmup = horizon * 0.1;
  so.seed = seed + 1;
  so.control_interval = 1.0;
  so.trace_capacity = capacity;
  so.obs_interval = obs_interval;
  so.recorder = &recorder;
  so.slo = &slo;
  Simulator sim(instance, central, so);
  sim.set_controller(plane.callback());
  const SimMetrics m = sim.run();

  const auto spans = plane.ctrl_trace().snapshot();
  const auto span_tally = ctrl_span_counts(spans);
  auto tally = [&](CtrlSpanEvent e) {
    return static_cast<unsigned long long>(
        span_tally[static_cast<std::size_t>(e)]);
  };
  std::printf(
      "obs-report: horizon=%.0fs drop=%.2f coordinator MTBF=%.1fs\n"
      "  deadline sat %.3f, %zu time-series samples (%zu columns), "
      "%zu spans\n"
      "  spans: sent=%llu delivered=%llu dropped=%llu dead_letter=%llu "
      "regrant=%llu adopted=%llu rejected_stale=%llu\n"
      "  slo[deadline]: alerts started=%llu stopped=%llu burn=%.2fx/%.2fx "
      "(10s/60s windows, objective 0.9)\n",
      horizon, drop, coord_mtbf, m.deadline_satisfaction, recorder.size(),
      recorder.columns().size(), spans.size(),
      tally(CtrlSpanEvent::kSent), tally(CtrlSpanEvent::kDelivered),
      tally(CtrlSpanEvent::kDropped), tally(CtrlSpanEvent::kDeadLetter),
      tally(CtrlSpanEvent::kRegrant), tally(CtrlSpanEvent::kAdopted),
      tally(CtrlSpanEvent::kRejectedStale),
      static_cast<unsigned long long>(slo.alerts_started()),
      static_cast<unsigned long long>(slo.alerts_stopped()),
      slo.specs() > 0 ? slo.burn_rate(0, 0) : 0.0,
      slo.specs() > 0 ? slo.burn_rate(0, 1) : 0.0);

  if (!trace_out.empty()) {
    if (!write_merged_trace(trace_out, sim.trace(), plane.ctrl_trace())) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
      return 1;
    }
    std::printf("wrote %zu task events + %zu spans to %s\n",
                sim.trace().size(), spans.size(), trace_out.c_str());
  }
  if (!timeseries_out.empty()) {
    if (!recorder.write(timeseries_out)) return 1;
    std::printf("wrote %zu samples to %s\n", recorder.size(),
                timeseries_out.c_str());
  }
  if (!metrics_out.empty()) {
    if (metrics_out.ends_with(".csv")) {
      if (!write_sim_metrics(m, metrics_out)) return 1;
    } else {
      Json doc = sim_metrics_to_json(m);
      MetricsRegistry ctrl_registry;
      plane.publish_metrics(ctrl_registry);
      doc.set("ctrl", ctrl_registry.to_json());
      doc.set("slo", slo.to_json());
      write_file(metrics_out, doc.dump_pretty() + "\n");
    }
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  if (!audit_out.empty()) {
    if (!plane.audit_log().write(audit_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", audit_out.c_str());
      return 1;
    }
    std::printf("wrote %zu audit records to %s\n", plane.audit_log().size(),
                audit_out.c_str());
  }
  return 0;
}

int cmd_models(const Flags&) {
  for (const auto& name : models::zoo_names()) {
    const auto g = models::by_name(name);
    std::printf("%-14s %3zu layers  %8.2f GFLOPs  %7.2f Mparams  %zu cuts\n",
                name.c_str(), g.size(),
                static_cast<double>(g.total_flops()) / 1e9,
                static_cast<double>(g.total_params()) / 1e6,
                g.clean_cuts().size());
  }
  return 0;
}

// Every command with the flags it reads; parse_flags refuses any other.
struct Command {
  const char* name;
  int (*run)(const Flags&);
  std::vector<std::string> flags;
};

const Command kCommands[] = {
    {"topology", cmd_topology, {"preset", "devices", "servers", "seed", "out"}},
    {"optimize", cmd_optimize, {"topology", "scheme", "out"}},
    {"simulate",
     cmd_simulate,
     {"topology", "decision", "horizon", "warmup", "seed", "reps", "threads",
      "metrics-out"}},
    {"admission", cmd_admission, {"topology", "decision", "scheme", "headroom"}},
    {"trace",
     cmd_trace,
     {"topology", "decision", "out", "overload", "controller", "horizon",
      "warmup", "seed", "capacity", "audit-out", "metrics-out"}},
    {"validate-trace", cmd_validate_trace, {"trace", "metrics"}},
    {"distributed",
     cmd_distributed,
     {"topology", "ticks", "delay", "jitter", "drop", "coord-mtbf",
      "coord-mttr", "horizon", "seed", "span-capacity", "obs-interval",
      "capacity", "audit-out", "trace-out", "metrics-out", "timeseries-out"}},
    {"obs-report",
     cmd_obs_report,
     {"topology", "horizon", "seed", "overload", "drop", "delay", "jitter",
      "coord-mtbf", "coord-mttr", "obs-interval", "span-capacity", "capacity",
      "trace-out", "timeseries-out", "metrics-out", "audit-out"}},
    {"models", cmd_models, {}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  for (const Command& c : kCommands) {
    if (cmd != c.name) continue;
    try {
      return c.run(parse_flags(argc, argv, c.name, c.flags));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
  }
  usage();
}
