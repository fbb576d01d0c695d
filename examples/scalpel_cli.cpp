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
#include <fstream>
#include <functional>
#include <limits>
#include <map>
#include <optional>
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

// Numeric flags go through the strict whole-token parsers (util/flags.hpp):
// "--reps -3", "--threads 8x", and "--tolerance banana" all die with a
// one-line reason and exit 2 instead of wrapping through unsigned conversion
// or silently becoming 0.
template <typename T>
T number_flag(const Flags& flags, const std::string& key, T fallback,
              T min_value, T max_value,
              bool (*parse)(const std::string&, T, T, T*, std::string*)) {
  const auto it = flags.find(key);
  if (it == flags.end()) return fallback;
  T value{};
  std::string err;
  if (!parse(it->second, min_value, max_value, &value, &err)) {
    std::fprintf(stderr, "error: --%s: %s\n", key.c_str(), err.c_str());
    std::exit(2);
  }
  return value;
}

std::uint64_t size_flag(const Flags& flags, const std::string& key,
                        std::uint64_t fallback, std::uint64_t min_value,
                        std::uint64_t max_value =
                            std::numeric_limits<std::uint64_t>::max()) {
  return number_flag(flags, key, fallback, min_value, max_value,
                     scalpel::flags::parse_size);
}

double double_flag(const Flags& flags, const std::string& key,
                   double fallback, double min_value,
                   double max_value = std::numeric_limits<double>::infinity()) {
  return number_flag(flags, key, fallback, min_value, max_value,
                     scalpel::flags::parse_double);
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

ClusterTopology load_topology(const std::string& path) {
  return serialize::topology_from_json(Json::parse(read_file(path)));
}

Decision load_decision(const std::string& path) {
  return serialize::decision_from_json(Json::parse(read_file(path)));
}

// `topo` with every device's arrival rate multiplied by `overload`.
ClusterTopology overloaded(ClusterTopology topo, double overload) {
  if (overload == 1.0) return topo;
  const auto devices = topo.devices();  // copy: the loop mutates topo
  for (const auto& d : devices) {
    topo.set_device_arrival_rate(d.id, d.arrival_rate * overload);
  }
  return topo;
}

// The one failure rule for every file a command writes: a failed write names
// the file and ends the command with exit 1.
bool written(bool ok, const std::string& path) {
  if (!ok) std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
  return ok;
}

bool write_json(const std::string& path, const Json& doc) {
  return written(
      write_json_file(path, [&](JsonWriter& w) { w.value(doc); }), path);
}

// What a run can export; a file whose source stays null is not written.
struct RunOutputs {
  const SimMetrics* metrics = nullptr;
  const DecisionAuditLog* audit = nullptr;
  const TaskTracer* tasks = nullptr;
  const DistributedControlPlane* plane = nullptr;  // spans + ctrl.* section
  const TimeSeriesRecorder* recorder = nullptr;
  const SloMonitor* slo = nullptr;
};

// The one export path of simulate's single run, trace, distributed and
// obs-report: writes each --audit-out, --trace-out, --metrics-out and
// --timeseries-out file the command was given. A metrics JSON also carries
// the plane's ctrl.* registry and the SLO state when the run has them; the
// CSV form is the flat simulation scalars only.
int export_run(const Flags& flags, const RunOutputs& run) {
  const std::string audit_out = flag_or(flags, "audit-out", "");
  if (!audit_out.empty() && run.audit != nullptr) {
    if (!written(run.audit->write(audit_out), audit_out)) return 1;
    std::printf("wrote %zu audit records to %s\n", run.audit->size(),
                audit_out.c_str());
  }
  const std::string trace_out = flag_or(flags, "trace-out", "");
  if (!trace_out.empty() && run.plane != nullptr) {
    const CtrlTracer& spans = run.plane->ctrl_trace();
    if (!written(write_merged_trace(trace_out, *run.tasks, spans), trace_out)) {
      return 1;
    }
    std::printf("wrote %zu task events + %zu control-plane spans to %s\n",
                run.tasks->size(), spans.size(), trace_out.c_str());
  }
  const std::string metrics_out = flag_or(flags, "metrics-out", "");
  if (!metrics_out.empty()) {
    if (metrics_out.ends_with(".csv")) {
      if (!written(write_sim_metrics(*run.metrics, metrics_out), metrics_out)) {
        return 1;
      }
    } else {
      Json doc = sim_metrics_to_json(*run.metrics);
      if (run.plane != nullptr) {
        MetricsRegistry ctrl;
        run.plane->publish_metrics(ctrl);
        doc.set("ctrl", ctrl.to_json());
      }
      if (run.slo != nullptr) doc.set("slo", run.slo->to_json());
      if (!write_json(metrics_out, doc)) return 1;
    }
    std::printf("wrote metrics to %s\n", metrics_out.c_str());
  }
  const std::string series_out = flag_or(flags, "timeseries-out", "");
  if (!series_out.empty() && run.recorder != nullptr) {
    if (!written(run.recorder->write(series_out), series_out)) return 1;
    std::printf("wrote %zu time-series samples to %s\n", run.recorder->size(),
                series_out.c_str());
  }
  return 0;
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
  if (!write_json(out, serialize::to_json(topo))) return 1;
  std::printf("wrote %s (%zu devices, %zu servers, %zu cells)\n", out.c_str(),
              topo.devices().size(), topo.servers().size(),
              topo.cells().size());
  return 0;
}

int cmd_optimize(const Flags& flags) {
  const std::string topo_path = flag_or(flags, "topology", "");
  const std::string out = flag_or(flags, "out", "");
  if (topo_path.empty() || out.empty()) usage();
  const ProblemInstance instance(load_topology(topo_path));

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
  if (!write_json(out, serialize::to_json(decision))) return 1;
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

  const ProblemInstance instance(load_topology(topo_path));
  Decision decision = load_decision(decision_path);
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
    return export_run(flags, {.metrics = &m});
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
    if (!written(write_replicated_metrics(agg, metrics_out), metrics_out)) {
      return 1;
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
  const auto topo = load_topology(topo_path);
  const ProblemInstance instance(topo);

  Decision decision;
  const std::string decision_path = flag_or(flags, "decision", "");
  if (!decision_path.empty()) {
    decision = load_decision(decision_path);
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
  const auto deployed_topo = load_topology(topo_path);

  const double overload = double_flag(flags, "overload", 1.0, 1e-6, 1e3);
  const ProblemInstance instance(overloaded(deployed_topo, overload));

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
    decision = load_decision(decision_path);
  } else {
    decision = JointOptimizer(JointOptions{}).optimize(instance);
  }
  evaluate_decision(instance, decision);

  Simulator sim(instance, decision, opts);
  if (with_controller) {
    sim.set_controller(ctl.callback());  // o.time advances the audit clock
  }
  const auto m = sim.run();

  if (!written(write_trace(sim.trace(), out), out)) return 1;
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
  }
  return export_run(
      flags, {.metrics = &m,
              .audit = with_controller ? &ctl.audit_log() : nullptr});
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
    const Json& gauges = metrics.at("ctrl").at("gauges");
    auto span_count = [&](const char* name) {
      const auto it = span_counts.find(name);
      return it == span_counts.end() ? std::int64_t{0} : it->second;
    };
    auto ctr = [&](const char* name) {
      return ctrl.contains(name) ? ctrl.at(name).as_int() : std::int64_t{0};
    };
    const std::int64_t fabric_in_flight =
        gauges.contains("ctrl.in_flight")
            ? static_cast<std::int64_t>(gauges.at("ctrl.in_flight").as_number())
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

// Widens a counter for printf's %llu.
unsigned long long ull(std::uint64_t v) { return v; }

// The flags distributed and obs-report share, parsed over each command's
// defaults. `observe` is no flag: obs-report always records the task trace
// and the time series, distributed only for the file that needs them.
struct FailoverFlags {
  double delay = 0.0, jitter = 0.0, drop = 0.0;
  double coord_mtbf = 0.0, coord_mttr = 0.0, horizon = 0.0;
  bool observe = false;
  std::uint64_t seed = 19;
  std::size_t span_capacity = 0;
  std::size_t capacity = 0;  // task-trace ring; 0 records no task trace
  double obs_interval = 0.0;
};

FailoverFlags failover_flags(const Flags& flags, FailoverFlags f) {
  f.delay = double_flag(flags, "delay", f.delay, 0.0, 1e3);
  f.jitter = double_flag(flags, "jitter", f.jitter, 0.0, 1e3);
  f.drop = double_flag(flags, "drop", f.drop, 0.0, 0.999);
  f.coord_mtbf = double_flag(flags, "coord-mtbf", f.coord_mtbf, 0.0, 1e9);
  f.coord_mttr = double_flag(flags, "coord-mttr", f.coord_mttr, 1e-6, 1e9);
  f.horizon = double_flag(flags, "horizon", f.horizon, 1e-6);
  f.seed = size_flag(flags, "seed", f.seed, 0);
  f.span_capacity = static_cast<std::size_t>(
      size_flag(flags, "span-capacity", 1u << 16, 1, 1u << 26));
  f.obs_interval = double_flag(flags, "obs-interval", 0.5, 1e-6, 1.0);
  if (f.observe || !flag_or(flags, "trace-out", "").empty()) {
    f.capacity = static_cast<std::size_t>(
        size_flag(flags, "capacity", 1048576, 1, 1u << 28));
  }
  return f;
}

// The plane over the fabric the flags describe, without controller faults.
// The cells solve at the centralized reference's optimizer budget, so the
// reported gap is a fair protocol cost.
DistributedPlaneOptions plane_options(const FailoverFlags& f) {
  DistributedPlaneOptions po;
  po.fabric.delay = f.delay;
  po.fabric.jitter = f.jitter;
  po.fabric.drop_prob = f.drop;
  po.cell.joint.max_iterations = 2;
  po.cell.joint.dp_coverage_bins = 40;
  po.cell.joint.theta_grid = {0.0, 0.3, 0.6};
  po.seed = f.seed;
  po.span_capacity = f.span_capacity;
  return po;
}

Simulator::Options failover_sim_options(const FailoverFlags& f) {
  Simulator::Options so;
  so.horizon = f.horizon;
  so.warmup = f.horizon * 0.1;
  so.seed = f.seed + 1;
  so.control_interval = 1.0;
  return so;
}

// The failover run distributed and obs-report share: the centralized joint
// solve, then a DES steered by the distributed plane over a lossy fabric
// while its coordinator crashes on an MTBF/MTTR process. A `slo_spec` burns
// into the plane's audit log. `report` prints the command's summary.
int run_failover(const Flags& flags, const ClusterTopology& topo,
                 const FailoverFlags& f, const SloSpec* slo_spec,
                 const std::function<void(const ProblemInstance&,
                                          const Decision& central,
                                          const RunOutputs&)>& report) {
  const ProblemInstance instance(topo);
  DistributedPlaneOptions po = plane_options(f);
  Decision central = JointOptimizer(po.cell.joint).optimize(instance);
  evaluate_decision(instance, central);
  if (f.coord_mtbf > 0.0) {
    po.controller_faults = FaultSchedule::exponential_servers(
        1, f.coord_mtbf, f.coord_mttr, f.horizon, Rng(f.seed + 2));
  }
  DistributedControlPlane plane(topo, std::move(po));

  Simulator::Options so = failover_sim_options(f);
  so.trace_capacity = f.capacity;
  TimeSeriesRecorder recorder(1u << 16);
  if (f.observe || !flag_or(flags, "timeseries-out", "").empty()) {
    plane.register_sources(recorder);
    so.obs_interval = f.obs_interval;
    so.recorder = &recorder;
  }
  std::optional<SloMonitor> slo;
  if (slo_spec != nullptr) {
    slo.emplace(&recorder, &plane.audit_log());
    slo->add(*slo_spec);
    so.slo = &*slo;
  }
  Simulator sim(instance, central, so);
  sim.set_controller(plane.callback());
  const SimMetrics m = sim.run();

  const RunOutputs run{.metrics = &m, .audit = &plane.audit_log(),
                       .tasks = &sim.trace(), .plane = &plane,
                       .recorder = &recorder, .slo = slo ? &*slo : nullptr};
  report(instance, central, run);
  return export_run(flags, run);
}

// Distributed control-plane report: convergence of the per-cell controllers
// over a lossy fabric (part 1), then the failover run, where the coordinator
// endpoint itself crashes and the cells fall back to validated local
// autonomy (part 2). Exercises src/ctrl end to end from the command line;
// ci.sh's obs and chaos tiers smoke-test it.
int cmd_distributed(const Flags& flags) {
  const std::string topo_path = flag_or(flags, "topology", "");
  if (topo_path.empty()) usage();
  // All numeric flags are validated before any file I/O (same contract as
  // cmd_simulate: a typo'd command fails on the typo).
  const auto ticks =
      static_cast<int>(size_flag(flags, "ticks", 40, 1, 1u << 20));
  const FailoverFlags f = failover_flags(
      flags, {.delay = 0.2, .jitter = 0.5, .drop = 0.05, .coord_mtbf = 10.0,
              .coord_mttr = 4.0, .horizon = 60.0});
  const auto topo = load_topology(topo_path);

  auto report = [&](const ProblemInstance& instance, const Decision& central,
                    const RunOutputs& run) {
    // Part 1: static workload; how fast does tatonnement settle and how
    // close is the merged plan to the centralized solve?
    DistributedControlPlane plane(topo, plane_options(f));
    Observation o;
    for (const auto& cell : topo.cells()) {
      o.cell_bandwidth.push_back(cell.bandwidth);
    }
    o.server_alive.assign(topo.servers().size(), true);
    int converged_at = -1;
    for (int t = 0; t < ticks; ++t) {
      o.time = static_cast<double>(t);
      (void)plane.tick(o);
      if (converged_at < 0 && plane.converged()) converged_at = t;
    }
    Decision merged = plane.merged();
    evaluate_decision(instance, merged);
    const double gap = merged.mean_latency / central.mean_latency - 1.0;
    std::printf(
        "convergence: fabric delay=%.2fs jitter=%.2fs drop=%.2f over %d "
        "ticks\n  converged=%s epoch=%llu rounds=%llu msgs "
        "sent=%llu dropped=%llu\n  merged-plan gap vs centralized: %.2f%%\n",
        f.delay, f.jitter, f.drop, ticks, converged_at < 0 ? "NO" : "yes",
        ull(plane.coordinator().epoch()),
        ull(plane.coordinator().realloc_rounds()), ull(plane.fabric().sent()),
        ull(plane.fabric().dropped()), 100.0 * gap);
    if (converged_at >= 0) {
      std::printf("  first fully-adopted epoch at tick %d\n", converged_at);
    }

    // Part 2: the cells kept steering on local autonomy through the
    // coordinator's crashes and must beat the frozen plan's deadline sat.
    const SimMetrics frozen =
        Simulator(instance, central, failover_sim_options(f)).run();
    const DistributedControlPlane& chaos = *run.plane;
    std::printf(
        "failover: coordinator MTBF=%s MTTR=%.1fs over %.0fs horizon\n"
        "  deadline sat %.3f (frozen centralized plan: %.3f)\n"
        "  coordinator crashes=%llu losses=%llu rejoins=%llu local "
        "solves=%llu\n  stale-price events=%llu epochs rejected=%llu dead "
        "letters=%llu\n",
        f.coord_mtbf > 0.0 ? (Table::num(f.coord_mtbf, 1) + "s").c_str()
                           : "off",
        f.coord_mttr, f.horizon, run.metrics->deadline_satisfaction,
        frozen.deadline_satisfaction, ull(chaos.coordinator_crashes()),
        ull(chaos.coordinator_losses()), ull(chaos.rejoins()),
        ull(chaos.local_solves()), ull(chaos.stale_events()),
        ull(chaos.epochs_rejected()), ull(chaos.dead_letters()));
  };
  return run_failover(flags, topo, f, nullptr, report);
}

// One-stop observability report: the failover run with causal span
// tracing, windowed time-series telemetry, and SLO burn-rate monitoring all
// enabled. Emits a single Chrome trace with task events and control-plane
// spans on the shared clock (grant minted -> lost -> re-granted via
// anti-entropy -> adopted, reconstructable per correlation id), the sampled
// time series, and a metrics file whose ctrl.* section reconciles with the
// span stream — the triple validate-trace checks. `--overload F` multiplies
// every device's arrival rate before the solve.
int cmd_obs_report(const Flags& flags) {
  const double overload = double_flag(flags, "overload", 1.0, 1e-6, 1e3);
  const FailoverFlags f = failover_flags(
      flags, {.delay = 0.05, .jitter = 0.1, .drop = 0.15, .coord_mtbf = 6.0,
              .coord_mttr = 2.0, .horizon = 24.0, .observe = true});
  const std::string topo_path = flag_or(flags, "topology", "");
  const ClusterTopology topo = overloaded(
      topo_path.empty() ? clusters::small_lab() : load_topology(topo_path),
      overload);
  const SloSpec spec{.name = "deadline",
                     .good = "sim.deadline_met",
                     .total = "sim.deadline_total",
                     .objective = 0.9,
                     .windows = {{10.0, 1.0}, {60.0, 0.5}}};

  auto report = [&](const ProblemInstance&, const Decision&,
                    const RunOutputs& run) {
    const auto spans = run.plane->ctrl_trace().snapshot();
    const auto span_tally = ctrl_span_counts(spans);
    auto tally = [&](CtrlSpanEvent e) {
      return ull(span_tally[static_cast<std::size_t>(e)]);
    };
    const SloMonitor& slo = *run.slo;
    std::printf(
        "obs-report: horizon=%.0fs drop=%.2f coordinator MTBF=%.1fs\n"
        "  deadline sat %.3f, %zu time-series samples (%zu columns), "
        "%zu spans\n"
        "  spans: sent=%llu delivered=%llu dropped=%llu dead_letter=%llu "
        "regrant=%llu adopted=%llu rejected_stale=%llu\n"
        "  slo[deadline]: alerts started=%llu stopped=%llu burn=%.2fx/%.2fx "
        "(10s/60s windows, objective 0.9)\n",
        f.horizon, f.drop, f.coord_mtbf, run.metrics->deadline_satisfaction,
        run.recorder->size(), run.recorder->columns().size(), spans.size(),
        tally(CtrlSpanEvent::kSent), tally(CtrlSpanEvent::kDelivered),
        tally(CtrlSpanEvent::kDropped), tally(CtrlSpanEvent::kDeadLetter),
        tally(CtrlSpanEvent::kRegrant), tally(CtrlSpanEvent::kAdopted),
        tally(CtrlSpanEvent::kRejectedStale), ull(slo.alerts_started()),
        ull(slo.alerts_stopped()), slo.specs() > 0 ? slo.burn_rate(0, 0) : 0.0,
        slo.specs() > 0 ? slo.burn_rate(0, 1) : 0.0);
  };
  return run_failover(flags, topo, f, &spec, report);
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
