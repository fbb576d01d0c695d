#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <tuple>

#include "baselines/baselines.hpp"
#include "core/joint.hpp"
#include "core/objective.hpp"
#include "core/online.hpp"
#include "core/validate.hpp"
#include "ctrl/plane.hpp"
#include "edge/builders.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/metrics_export.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "spans.hpp"
#include "surgery/exit_setting.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace scalpel;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// The cluster is part of the workload definition, not of its random inputs:
// every seed runs against the same devices, models and servers.
constexpr std::uint64_t kClusterSeed = 7;

// One substream of the run seed per stochastic input, so changing how one
// input is drawn never shifts another.
enum Stream : std::uint64_t {
  kSimStream = 1,
  kServerChurnStream,
  kBandwidthStream,
  kFabricStream,
  kCoordinatorStream,
};

std::uint64_t stream_seed(std::uint64_t seed, Stream s) {
  return Rng::substream_seed(seed, s);
}

// 48 devices in 6 cells of 8, 6 servers.
clusters::CampusOptions campus_options(double arrival_rate) {
  clusters::CampusOptions o;
  o.num_devices = 48;
  o.num_servers = 6;
  o.devices_per_cell = 8;
  o.mean_arrival_rate = arrival_rate;
  o.seed = kClusterSeed;
  return o;
}

// Tasks/s per device: campus-online runs hot enough for its burst to walk
// the degradation ladder; the distributed plane has no overload control, so
// cells-lossy runs at the campus default.
constexpr double kOnlineRate = 4.0;
constexpr double kCellsRate = 2.0;

// The metro sweep's instance (perf/simcore_bench.cpp) at 200k devices.
clusters::CampusOptions metro_options() {
  clusters::CampusOptions o;
  o.num_devices = 200000;
  o.num_servers = 32;
  o.devices_per_cell = 100;
  o.cell_rtt = 10e-3;
  o.mean_arrival_rate = 0.05;
  o.deadline = 0.0;
  o.seed = kClusterSeed;
  return o;
}

// The budget the reproduction benches solve with (bench_common joint_opts).
JointOptions bench_joint() {
  JointOptions o;
  o.max_iterations = 4;
  o.dp_coverage_bins = 60;
  return o;
}

// F19's light budget for the cells' local solves.
JointOptions light_joint() {
  JointOptions o;
  o.max_iterations = 2;
  o.dp_coverage_bins = 40;
  o.theta_grid = {0.0, 0.3, 0.6};
  return o;
}

using Solver =
    std::function<Decision(const ProblemInstance&, const JointOptions&)>;

struct JointTally {
  std::size_t calls = 0;
  std::size_t iterations = 0;
  std::size_t surgery_evals = 0;
};

// Traced runs route every solve through the public solver seams so each one
// gets a span and its JointReport; the decision is the one the default path
// computes.
Solver reporting_solver(SpanRecorder& spans, JointTally& tally) {
  return [&spans, &tally](const ProblemInstance& inst, const JointOptions& o) {
    ScopedSpan span(spans, "core.joint.optimize");
    JointReport report;
    Decision d = JointOptimizer(o).optimize(inst, &report);
    ++tally.calls;
    tally.iterations += report.iterations;
    tally.surgery_evals += report.surgery_evaluations;
    return d;
  };
}

class Checks {
 public:
  void require(bool ok, const std::string& what) {
    ++run_;
    if (!ok) failures_.push_back(what);
  }
  bool ok() const { return failures_.empty(); }
  Json to_json() const {
    Json j = Json::object();
    j.set("run", Json::number(static_cast<double>(run_)));
    Json f = Json::array();
    for (const auto& s : failures_) f.push_back(Json::string(s));
    j.set("failures", std::move(f));
    return j;
  }

 private:
  std::size_t run_ = 0;
  std::vector<std::string> failures_;
};

// A plan a controller handed to the engine, with the conditions the
// controller believed in when it returned it.
struct CapturedPlan {
  Decision decision;
  std::vector<double> bandwidth;  // per cell
  std::vector<bool> alive;        // per server
};

std::vector<double> cell_bandwidths(const ClusterTopology& topo) {
  std::vector<double> bw;
  for (const auto& c : topo.cells()) bw.push_back(c.bandwidth);
  return bw;
}

void validate_captured(const ClusterTopology& topo,
                       const std::vector<CapturedPlan>& plans,
                       Checks& checks) {
  ProblemInstance check(topo);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    const CapturedPlan& p = plans[i];
    for (std::size_t c = 0; c < p.bandwidth.size(); ++c) {
      check.mutable_topology().set_cell_bandwidth(static_cast<CellId>(c),
                                                  p.bandwidth[c]);
    }
    const PlanValidation v = validate_plan(check, p.decision, p.alive);
    checks.require(v.ok, "plan " + std::to_string(i) +
                             " failed validate_plan: " + v.reason);
  }
}

void check_conservation(const SimMetrics& m, Checks& checks) {
  checks.require(m.arrived == m.completed_all + m.failed_all + m.shed_all +
                                  m.in_flight_end,
                 "conservation: arrived != completed_all + failed_all + "
                 "shed_all + in_flight_end");
  checks.require(m.completed > 0, "no post-warmup completions");
}

// The simulated statistics. They depend only on the seed, never on host
// speed, so run.py compares them bit for bit across repeats,
// traced/untraced runs and engines.
Json sim_stats(const SimMetrics& m) {
  const double dropped = static_cast<double>(m.failed + m.shed + m.expired);
  const double terminal = static_cast<double>(m.completed) + dropped;
  Json j = Json::object();
  j.set("deadline_sat", Json::number(m.deadline_satisfaction));
  j.set("lat_p50_ms", Json::number(m.latency.p50() * 1e3));
  j.set("lat_p99_ms", Json::number(m.latency.p99() * 1e3));
  j.set("lat_mean_ms", Json::number(m.latency.mean() * 1e3));
  j.set("accuracy", Json::number(m.measured_accuracy));
  j.set("drop_frac", Json::number(terminal > 0 ? dropped / terminal : 0.0));
  j.set("served_frac",
        Json::number(terminal > 0 ? static_cast<double>(m.completed) / terminal
                                  : 0.0));
  j.set("mean_task_energy", Json::number(m.mean_task_energy));
  for (const auto& [name, v] :
       std::vector<std::pair<const char*, std::size_t>>{
           {"arrived", m.arrived},
           {"completed", m.completed},
           {"failed", m.failed},
           {"shed", m.shed},
           {"expired", m.expired},
           {"retried", m.retried},
           {"resteered", m.resteered},
           {"completed_all", m.completed_all},
           {"failed_all", m.failed_all},
           {"shed_all", m.shed_all},
           {"in_flight_end", m.in_flight_end},
           {"events", m.events_processed}}) {
    j.set(name, Json::number(static_cast<double>(v)));
  }
  return j;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Writes `text`; returns the bytes written (0 and a failed check on error).
std::size_t write_text(const std::string& path, const std::string& text,
                       Checks& checks) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  out << text;
  out.close();
  checks.require(static_cast<bool>(out), "cannot write " + path);
  return out ? text.size() : 0;
}

std::size_t file_bytes(const std::string& path, bool written,
                       Checks& checks) {
  checks.require(written, "export failed: " + path);
  std::error_code ec;
  const auto n = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(n);
}

struct Host {
  double e2e_s = 0.0;
  double setup_s = 0.0;
  double plan_s = 0.0;
  double sim_s = 0.0;
  double export_s = 0.0;
  std::vector<double> replan_s;  // control ticks that ran >= 1 solve
};

// Everything one pipeline reports.
struct Outcome {
  Host host;
  SimMetrics metrics;
  Checks checks;
  Json layers = Json::object();
  std::size_t export_bytes = 0;
  std::size_t trace_events = 0;
  Json spans = Json::array();
};

void set_layer(Outcome& out, const std::string& name, double v) {
  out.layers.set(name, Json::number(v));
}

// Per-layer figures every workload reports; layers a workload never calls
// read 0 so the set of names is the same everywhere.
void common_layers(Outcome& out, const SpanRecorder& spans,
                   const JointTally& joint, double e2e_s) {
  const auto totals = spans.totals();
  auto total = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? LayerTotals{} : it->second;
  };
  set_layer(out, "core.joint.calls", static_cast<double>(joint.calls));
  set_layer(out, "core.joint.s_per_call",
            joint.calls ? total("core.joint.optimize").total_s /
                              static_cast<double>(joint.calls)
                        : 0.0);
  set_layer(out, "core.joint.iterations",
            static_cast<double>(joint.iterations));
  set_layer(out, "core.joint.surgery_evals",
            static_cast<double>(joint.surgery_evals));
  const LayerTotals run = total("sim.run");
  const double events = static_cast<double>(out.metrics.events_processed);
  set_layer(out, "sim.events", events);
  set_layer(out, "sim.self_s", run.self_s);
  set_layer(out, "sim.self_ns_per_event", run.self_s * 1e9 / events);
  set_layer(out, "sim.allocs_per_event",
            static_cast<double>(run.self_allocs) / events);
  set_layer(out, "obs.export_s", total("bench.export").total_s);
  set_layer(out, "obs.export_bytes", static_cast<double>(out.export_bytes));
  set_layer(out, "obs.trace_events", static_cast<double>(out.trace_events));
  set_layer(out, "edge.build_s", total("edge.build").total_s);
  set_layer(out, "bench.span_coverage", spans.top_level_seconds() / e2e_s);
  for (const char* name :
       {"core.online.ticks", "core.online.self_s", "core.online.resolves",
        "core.online.failovers", "core.online.degradations",
        "core.online.fallbacks", "core.online.useful_ratio", "ctrl.ticks",
        "ctrl.self_s", "ctrl.local_solves", "ctrl.plan_changes",
        "ctrl.dead_letters", "ctrl.useful_ratio", "sim.barriers",
        "sim.events_per_barrier", "sim.parallel_speedup"}) {
    if (!out.layers.contains(name)) set_layer(out, name, 0.0);
  }
}

// Replays the exit-setting DP once per device (evenly strided, at most
// `max_devices`) with the device's own accuracy floor and difficulty, and
// measures how many distinct surgery problems the cluster holds.
void exit_dp_replay(Outcome& out, const ProblemInstance& instance,
                    const JointOptions& joint, std::size_t max_devices) {
  const auto& devices = instance.topology().devices();
  std::set<std::tuple<std::string, std::string, double, double, double>> keys;
  for (const auto& d : devices) {
    keys.emplace(d.model, d.compute.name, d.difficulty.a(), d.difficulty.b(),
                 d.min_accuracy);
  }
  const std::size_t stride =
      std::max<std::size_t>(1, devices.size() / max_devices);
  std::size_t calls = 0;
  double feasible = 0.0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < devices.size(); i += stride) {
    const auto& d = devices[i];
    const auto& bundle = instance.bundle_for(d.id);
    ExitSettingOptions eo;
    eo.min_accuracy = d.min_accuracy;
    eo.theta_grid = joint.theta_grid;
    eo.max_exits = joint.max_exits;
    eo.coverage_bins = joint.dp_coverage_bins;
    eo.difficulty = d.difficulty;
    const auto res = dp_exit_setting(bundle.graph, bundle.candidates,
                                     bundle.accuracy, d.compute, eo);
    feasible += res.feasible ? 1.0 : 0.0;
    ++calls;
  }
  const double elapsed = since(t0);
  out.checks.require(feasible > 0.0, "exit DP replay found no feasible plan");
  set_layer(out, "surgery.exit_dp.us_per_call",
            elapsed * 1e6 / static_cast<double>(calls));
  set_layer(out, "surgery.distinct_share",
            static_cast<double>(keys.size()) /
                static_cast<double>(devices.size()));
}

// Exactly `crashes` crash/repair cycles on uniformly drawn servers. Crash k
// falls in the first 40 % of the k-th equal slot of [from, to) and repairs
// after 40-60 % of a slot, so outages never overlap. A fixed count gives
// every seed the same number of liveness flips, hence the same number of
// failover re-solves, and host time stays comparable across seeds.
FaultSchedule scripted_crashes(std::size_t servers, std::size_t crashes,
                               double from, double to, Rng rng) {
  FaultSchedule script;
  const double slot = (to - from) / static_cast<double>(crashes);
  for (std::size_t k = 0; k < crashes; ++k) {
    const auto server = static_cast<ServerId>(
        rng.uniform_int(0, static_cast<std::int64_t>(servers) - 1));
    const double down =
        from + slot * (static_cast<double>(k) + rng.uniform(0.0, 0.4));
    const double up = down + slot * rng.uniform(0.4, 0.6);
    script = script.merged(FaultSchedule::server_crash(server, down, up));
  }
  return script;
}

// `trace` scaled by `factor` over [from, to).
BandwidthTrace with_dip(const BandwidthTrace& trace, double from, double to,
                        double factor) {
  std::vector<double> starts = {from, to};
  for (const auto& seg : trace.segments()) starts.push_back(seg.start);
  std::sort(starts.begin(), starts.end());
  starts.erase(std::unique(starts.begin(), starts.end()), starts.end());
  std::vector<BandwidthTrace::Segment> segs;
  for (const double t : starts) {
    const bool inside = t >= from && t < to;
    segs.push_back({t, trace.at(t) * (inside ? factor : 1.0)});
  }
  return BandwidthTrace(std::move(segs));
}

// ---------------------------------------------------------------------------
// campus-online: the pinned end-to-end pipeline. Hardened online controller
// over a churning, bursty, drifting campus; the solver dominates host time.

Outcome campus_online(const PipelineConfig& cfg) {
  const double horizon = cfg.horizon > 0.0 ? cfg.horizon : 60.0;
  SpanRecorder spans(cfg.traced, cfg.pipeline);
  JointTally joint;
  Outcome out;
  Host& host = out.host;
  std::vector<CapturedPlan> plans;
  std::size_t ticks = 0, resolving_ticks = 0, useful_ticks = 0;

  auto controller_options = [&] {
    OnlineController::Options o;
    o.hysteresis = 0.25;
    o.joint = bench_joint();
    // The wall-clock watchdog stays off: a budget measured in host seconds
    // would make simulated outcomes depend on the speed of the machine.
    if (cfg.traced) o.solver = reporting_solver(spans, joint);
    return o;
  };
  // Timeline, as shares of the horizon: warm-up to 1/6, one server crash in
  // [0.2, 0.45), a 1.8x burst over [0.5, 0.6), one cell's bandwidth dip
  // starting in [0.65, 0.75). Disjoint windows keep every event's re-solve
  // separate, so each seed costs one cold solve and four re-solves.
  auto sim_options = [&](const ClusterTopology& topo) {
    Simulator::Options o;
    o.horizon = horizon;
    o.warmup = horizon / 6.0;
    o.seed = stream_seed(cfg.seed, kSimStream);
    o.control_interval = 1.0;
    o.overload.policy = OverloadPolicy::ShedExpired;
    o.overload.device_queue_limit = 32;
    o.overload.upload_queue_limit = 8;
    o.overload.server_queue_limit = 8;
    o.rate_bursts.push_back(RateBurst{0.5 * horizon, 0.6 * horizon, 1.8});
    o.faults.policy = FaultPolicy::RetryOffload;
    o.faults.max_retries = 20;
    o.faults.retry_backoff = 0.25;
    o.faults.retry_timeout = 15.0;
    o.faults.schedule = scripted_crashes(
        topo.servers().size(), 1, 0.2 * horizon, 0.45 * horizon,
        Rng(stream_seed(cfg.seed, kServerChurnStream)));
    o.trace_capacity = std::size_t{1} << 20;
    o.obs_interval = 0.5;
    return o;
  };
  // Every cell drifts on a random walk (10 s steps, sigma 0.08) clamped to
  // +-10 %, inside the controller's 25 % hysteresis band; one drawn cell
  // additionally dips to half its bandwidth for a while, which the
  // controller must follow with one re-solve into the dip and one out.
  auto cell_traces = [&](const ClusterTopology& topo) {
    const Rng base(stream_seed(cfg.seed, kBandwidthStream));
    Rng pick = base.substream(topo.cells().size());
    const auto dip_cell = static_cast<CellId>(pick.uniform_int(
        0, static_cast<std::int64_t>(topo.cells().size()) - 1));
    const double dip_from = pick.uniform(0.65, 0.75) * horizon;
    const double dip_to = dip_from + pick.uniform(0.10, 0.15) * horizon;
    std::vector<BandwidthTrace> traces;
    for (const auto& c : topo.cells()) {
      Rng rng = base.substream(static_cast<std::uint64_t>(c.id));
      BandwidthTrace walk = BandwidthTrace::random_walk(
          c.bandwidth, 10.0, 0.08, 1.1, horizon, rng);
      traces.push_back(c.id == dip_cell
                           ? with_dip(walk, dip_from, dip_to, 0.5)
                           : std::move(walk));
    }
    return traces;
  };

  // Set-up is timed in two parts, before and after the cold plan.
  const auto t0 = Clock::now();
  auto ts = t0;
  std::unique_ptr<ClusterTopology> topo;
  std::unique_ptr<ProblemInstance> instance;
  std::unique_ptr<OnlineController> ctl;
  {
    ScopedSpan phase(spans, "bench.setup");
    {
      ScopedSpan s(spans, "edge.build");
      topo = std::make_unique<ClusterTopology>(
          clusters::campus(campus_options(kOnlineRate)));
    }
    {
      ScopedSpan s(spans, "core.instance");
      instance = std::make_unique<ProblemInstance>(*topo);
    }
    ScopedSpan s(spans, "core.online.construct");
    ctl = std::make_unique<OnlineController>(*topo, controller_options());
  }
  host.setup_s += since(ts);

  ts = Clock::now();
  Decision initial;
  {
    ScopedSpan phase(spans, "bench.plan");
    ScopedSpan s(spans, "core.online.decision");
    initial = ctl->decision();
  }
  host.plan_s = since(ts);

  ts = Clock::now();
  std::unique_ptr<TimeSeriesRecorder> recorder;
  std::unique_ptr<SloMonitor> slo;
  std::unique_ptr<Simulator> sim;
  {
    ScopedSpan phase(spans, "bench.setup");
    ScopedSpan s(spans, "sim.construct");
    recorder = std::make_unique<TimeSeriesRecorder>(std::size_t{1} << 16);
    slo = std::make_unique<SloMonitor>(recorder.get(), &ctl->audit_log());
    ctl->register_sources(*recorder);
    SloSpec spec;
    spec.name = "deadline";
    spec.good = "sim.deadline_met";
    spec.total = "sim.deadline_total";
    spec.objective = 0.9;
    spec.windows = {{10.0, 1.0}, {60.0, 0.5}};
    slo->add(spec);
    Simulator::Options so = sim_options(*topo);
    so.recorder = recorder.get();
    so.slo = slo.get();
    sim = std::make_unique<Simulator>(*instance, initial, so);
    const auto traces = cell_traces(*topo);
    for (std::size_t c = 0; c < traces.size(); ++c) {
      sim->set_cell_trace(static_cast<CellId>(c), traces[c]);
    }
    sim->set_controller([&](const Observation& o) {
      ctl->audit_log().advance_time(o.time);
      const std::size_t before = ctl->reoptimizations();
      const auto tick0 = Clock::now();
      bool changed = false;
      {
        ScopedSpan span(spans, "core.online.observe");
        changed = ctl->observe(o);
      }
      const double tick_s = since(tick0);
      ++ticks;
      if (ctl->reoptimizations() != before) {
        host.replan_s.push_back(tick_s);
        ++resolving_ticks;
        if (changed) ++useful_ticks;
      }
      ControlAction a;
      if (changed) {
        a.decision = ctl->decision();
        a.admit_fraction = ctl->admit_fraction();
        plans.push_back({ctl->decision(),
                         cell_bandwidths(ctl->instance().topology()),
                         ctl->server_alive()});
      }
      return a;
    });
  }
  host.setup_s += since(ts);

  ts = Clock::now();
  {
    ScopedSpan phase(spans, "bench.sim");
    ScopedSpan s(spans, "sim.run");
    out.metrics = sim->run();
  }
  host.sim_s = since(ts);

  ts = Clock::now();
  {
    ScopedSpan phase(spans, "bench.export");
    const std::string base = cfg.out_dir + "/campus-online";
    {
      ScopedSpan s(spans, "obs.trace");
      out.export_bytes +=
          file_bytes(base + ".trace.json",
                     write_trace(sim->trace(), base + ".trace.json"),
                     out.checks);
    }
    {
      ScopedSpan s(spans, "obs.timeseries");
      out.export_bytes += file_bytes(base + ".series.json",
                                     recorder->write(base + ".series.json"),
                                     out.checks);
    }
    {
      ScopedSpan s(spans, "sim.metrics_export");
      out.export_bytes +=
          file_bytes(base + ".metrics.json",
                     write_sim_metrics(out.metrics, base + ".metrics.json"),
                     out.checks);
    }
    {
      ScopedSpan s(spans, "obs.audit");
      out.export_bytes +=
          write_text(base + ".audit.json",
                     ctl->audit_log().to_json().dump_pretty() + "\n",
                     out.checks);
    }
    out.trace_events = sim->trace().size();
  }
  host.export_s = since(ts);
  host.e2e_s = since(t0);

  // --- Correctness checks, outside every timed region. The cold plan was
  // solved on the nominal topology with every server up.
  plans.push_back({initial, cell_bandwidths(*topo), {}});
  check_conservation(out.metrics, out.checks);
  validate_captured(*topo, plans, out.checks);
  out.checks.require(sim->trace().dropped() == 0,
                     "task trace ring overflowed");

  if (cfg.traced) {
    common_layers(out, spans, joint, host.e2e_s);
    const auto totals = spans.totals();
    const LayerTotals observe = totals.count("core.online.observe")
                                    ? totals.at("core.online.observe")
                                    : LayerTotals{};
    set_layer(out, "core.online.ticks", static_cast<double>(ticks));
    set_layer(out, "core.online.self_s", observe.self_s);
    set_layer(out, "core.online.resolves",
              static_cast<double>(ctl->reoptimizations()));
    set_layer(out, "core.online.failovers",
              static_cast<double>(ctl->failovers()));
    set_layer(out, "core.online.degradations",
              static_cast<double>(ctl->degradations()));
    set_layer(out, "core.online.fallbacks",
              static_cast<double>(ctl->fallbacks()));
    set_layer(out, "core.online.useful_ratio",
              resolving_ticks ? static_cast<double>(useful_ticks) /
                                    static_cast<double>(resolving_ticks)
                              : 0.0);
    exit_dp_replay(out, *instance, bench_joint(), 1000);
    out.spans = spans.to_json();
  }
  return out;
}

// ---------------------------------------------------------------------------
// cells-lossy: the distributed control plane over a lossy fabric; many
// small cell-local solves plus messaging instead of one big solve.

Outcome cells_lossy(const PipelineConfig& cfg) {
  const double horizon = cfg.horizon > 0.0 ? cfg.horizon : 120.0;
  SpanRecorder spans(cfg.traced, cfg.pipeline);
  JointTally joint;
  Outcome out;
  Host& host = out.host;
  std::vector<CapturedPlan> plans;
  std::uint64_t ticks = 0;

  // Churn over [0.2, 0.9) of the horizon, fixed in count: 4 coordinator
  // outages of 8-13 s (cells fall back to local autonomy and rejoin) and 16
  // server crashes of 2-3 s (every cell re-solves around each flip).
  auto plane_options = [&] {
    DistributedPlaneOptions po;
    po.fabric.delay = 0.05;
    po.fabric.jitter = 0.1;
    po.fabric.drop_prob = 0.15;
    po.cell.joint = light_joint();
    if (cfg.traced) po.cell.solver = reporting_solver(spans, joint);
    po.controller_faults =
        scripted_crashes(1, 4, 0.2 * horizon, 0.9 * horizon,
                         Rng(stream_seed(cfg.seed, kCoordinatorStream)));
    po.seed = stream_seed(cfg.seed, kFabricStream);
    po.span_capacity = std::size_t{1} << 16;
    return po;
  };
  auto sim_options = [&](const ClusterTopology& topo) {
    Simulator::Options o;
    o.horizon = horizon;
    o.warmup = horizon / 6.0;
    o.seed = stream_seed(cfg.seed, kSimStream);
    o.control_interval = 1.0;
    o.faults.policy = FaultPolicy::RetryOffload;
    o.faults.max_retries = 20;
    o.faults.retry_backoff = 0.25;
    o.faults.retry_timeout = 15.0;
    o.faults.schedule = scripted_crashes(
        topo.servers().size(), 16, 0.2 * horizon, 0.9 * horizon,
        Rng(stream_seed(cfg.seed, kServerChurnStream)));
    o.trace_capacity = std::size_t{1} << 20;
    return o;
  };

  // Set-up is timed in two parts, before and after the cold plan.
  const auto t0 = Clock::now();
  auto ts = t0;
  std::unique_ptr<ClusterTopology> topo;
  std::unique_ptr<ProblemInstance> instance;
  std::unique_ptr<DistributedControlPlane> plane;
  {
    ScopedSpan phase(spans, "bench.setup");
    {
      ScopedSpan s(spans, "edge.build");
      topo = std::make_unique<ClusterTopology>(
          clusters::campus(campus_options(kCellsRate)));
    }
    {
      ScopedSpan s(spans, "core.instance");
      instance = std::make_unique<ProblemInstance>(*topo);
    }
    ScopedSpan s(spans, "ctrl.construct");
    plane = std::make_unique<DistributedControlPlane>(*topo, plane_options());
  }
  host.setup_s += since(ts);

  ts = Clock::now();
  Decision central;
  {
    ScopedSpan phase(spans, "bench.plan");
    central = cfg.traced
                  ? reporting_solver(spans, joint)(*instance, bench_joint())
                  : JointOptimizer(bench_joint()).optimize(*instance);
  }
  host.plan_s = since(ts);

  ts = Clock::now();
  std::unique_ptr<Simulator> sim;
  {
    ScopedSpan phase(spans, "bench.setup");
    ScopedSpan s(spans, "sim.construct");
    sim = std::make_unique<Simulator>(*instance, central, sim_options(*topo));
    sim->set_controller(
        [&, tick = plane->callback()](const Observation& o) {
          const std::uint64_t before = plane->local_solves();
          const auto tick0 = Clock::now();
          ControlAction a;
          {
            ScopedSpan span(spans, "ctrl.tick");
            a = tick(o);
          }
          const double tick_s = since(tick0);
          ++ticks;
          if (plane->local_solves() != before) {
            host.replan_s.push_back(tick_s);
          }
          if (a.decision) {
            plans.push_back({*a.decision, o.cell_bandwidth, o.server_alive});
          }
          return a;
        });
  }
  host.setup_s += since(ts);

  ts = Clock::now();
  {
    ScopedSpan phase(spans, "bench.sim");
    ScopedSpan s(spans, "sim.run");
    out.metrics = sim->run();
  }
  host.sim_s = since(ts);

  ts = Clock::now();
  {
    ScopedSpan phase(spans, "bench.export");
    const std::string base = cfg.out_dir + "/cells-lossy";
    {
      ScopedSpan s(spans, "obs.merged_trace");
      out.export_bytes += write_text(
          base + ".trace.json",
          merged_trace_to_chrome_json(sim->trace(), plane->ctrl_trace())
                  .dump() +
              "\n",
          out.checks);
    }
    {
      ScopedSpan s(spans, "obs.metrics");
      Json doc = sim_metrics_to_json(out.metrics);
      MetricsRegistry registry;
      plane->publish_metrics(registry);
      doc.set("ctrl", registry.to_json());
      out.export_bytes += write_text(base + ".metrics.json",
                                     doc.dump_pretty() + "\n", out.checks);
    }
    out.trace_events = sim->trace().size() + plane->ctrl_trace().size();
  }
  host.export_s = since(ts);
  host.e2e_s = since(t0);

  plans.push_back({central, cell_bandwidths(*topo), {}});
  check_conservation(out.metrics, out.checks);
  validate_captured(*topo, plans, out.checks);
  out.checks.require(sim->trace().dropped() == 0,
                     "task trace ring overflowed");
  out.checks.require(plane->ticks() == ticks,
                     "control plane ticks disagree with engine callbacks");

  if (cfg.traced) {
    common_layers(out, spans, joint, host.e2e_s);
    const auto totals = spans.totals();
    const LayerTotals tick =
        totals.count("ctrl.tick") ? totals.at("ctrl.tick") : LayerTotals{};
    const auto local = static_cast<double>(plane->local_solves());
    const auto changes = static_cast<double>(plane->plan_changes());
    set_layer(out, "ctrl.ticks", static_cast<double>(plane->ticks()));
    set_layer(out, "ctrl.self_s", tick.self_s);
    set_layer(out, "ctrl.local_solves", local);
    set_layer(out, "ctrl.plan_changes", changes);
    set_layer(out, "ctrl.dead_letters",
              static_cast<double>(plane->dead_letters()));
    set_layer(out, "ctrl.useful_ratio", local > 0 ? changes / local : 0.0);
    exit_dp_replay(out, *instance, light_joint(), 1000);
    out.spans = spans.to_json();
  }
  return out;
}

// ---------------------------------------------------------------------------
// metro-loop / metro-shard4: a 200k-device city under a light device-only
// load. No solver work; the event engine's working set is far beyond cache.
//
// The timed sharded pipeline runs its 4 shards on one thread. With the
// epochs fanned out over threads, every barrier waits for the slowest
// thread's wake-up, and on a 4-vCPU virtual machine that made sim_s
// bimodal (0.8 s or 2.1 s for the same seed). The traced run measures the
// fanned-out run as sim.parallel_speedup instead.
constexpr std::size_t kParallelThreads = 4;

Outcome metro(const PipelineConfig& cfg, std::size_t shards) {
  const double horizon = cfg.horizon > 0.0 ? cfg.horizon : 60.0;
  SpanRecorder spans(cfg.traced, cfg.pipeline);
  JointTally joint;
  Outcome out;
  Host& host = out.host;
  std::size_t barriers = 0;

  auto sim_options = [&] {
    Simulator::Options o;
    o.horizon = horizon;
    o.warmup = horizon / 12.0;
    o.seed = stream_seed(cfg.seed, kSimStream);
    return o;
  };
  auto shard_options = [&](std::size_t n_threads) {
    ShardOptions so;
    so.shards = shards;
    so.threads = n_threads;
    return so;
  };

  const auto t0 = Clock::now();
  auto ts = t0;
  std::unique_ptr<ClusterTopology> topo;
  std::unique_ptr<ProblemInstance> instance;
  {
    ScopedSpan phase(spans, "bench.setup");
    {
      ScopedSpan s(spans, "edge.build");
      topo = std::make_unique<ClusterTopology>(
          clusters::campus(metro_options()));
    }
    {
      ScopedSpan s(spans, "core.instance");
      instance = std::make_unique<ProblemInstance>(*topo);
    }
  }
  host.setup_s += since(ts);

  ts = Clock::now();
  Decision plan;
  {
    ScopedSpan phase(spans, "bench.plan");
    ScopedSpan s(spans, "baselines.device_only");
    plan = baselines::device_only(*instance);
  }
  host.plan_s = since(ts);

  std::unique_ptr<Simulator> loop;
  std::unique_ptr<ShardedSimulator> sharded;
  ts = Clock::now();
  {
    ScopedSpan phase(spans, "bench.setup");
    ScopedSpan s(spans, "sim.construct");
    if (shards == 0) {
      loop = std::make_unique<Simulator>(*instance, plan, sim_options());
    } else {
      sharded = std::make_unique<ShardedSimulator>(
          *instance, plan, sim_options(), shard_options(1));
    }
  }
  host.setup_s += since(ts);

  ts = Clock::now();
  {
    ScopedSpan phase(spans, "bench.sim");
    ScopedSpan s(spans, "sim.run");
    out.metrics = loop ? loop->run() : sharded->run();
  }
  host.sim_s = since(ts);
  if (sharded) barriers = sharded->barriers_run();

  ts = Clock::now();
  {
    ScopedSpan phase(spans, "bench.export");
    ScopedSpan s(spans, "obs.metrics");
    const MetricsRegistry& registry =
        loop ? loop->registry() : sharded->registry();
    out.export_bytes +=
        write_text(cfg.out_dir + "/metro.metrics.json",
                   registry.to_json().dump_pretty() + "\n", out.checks);
  }
  host.export_s = since(ts);
  host.e2e_s = since(t0);

  check_conservation(out.metrics, out.checks);
  out.checks.require(
      validate_plan(*instance, plan, {}).ok,
      "device-only plan failed validate_plan");
  out.checks.require(shards == 0 || barriers > 0,
                     "sharded run synchronized on no barrier");

  if (cfg.traced) {
    common_layers(out, spans, joint, host.e2e_s);
    set_layer(out, "sim.barriers", static_cast<double>(barriers));
    set_layer(out, "sim.events_per_barrier",
              barriers ? static_cast<double>(out.metrics.events_processed) /
                             static_cast<double>(barriers)
                       : 0.0);
    if (sharded) {
      // The same run with the epochs fanned out over kParallelThreads: the
      // parallel speedup, and one more bit-identity check across thread
      // counts.
      sharded.reset();
      ShardedSimulator parallel(*instance, plan, sim_options(),
                                shard_options(kParallelThreads));
      const auto s0 = Clock::now();
      const SimMetrics mp = parallel.run();
      const double parallel_s = since(s0);
      out.checks.require(sim_stats(mp) == sim_stats(out.metrics),
                         "multi-threaded sharded run diverged from the "
                         "1-thread run");
      set_layer(out, "sim.parallel_speedup", host.sim_s / parallel_s);
    }
    exit_dp_replay(out, *instance, bench_joint(), 1000);
    out.spans = spans.to_json();
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "campus-online", "cells-lossy", "metro-loop", "metro-shard4"};
  return names;
}

Json run_pipeline(const PipelineConfig& cfg) {
  Outcome out;
  if (cfg.workload == "campus-online") {
    out = campus_online(cfg);
  } else if (cfg.workload == "cells-lossy") {
    out = cells_lossy(cfg);
  } else if (cfg.workload == "metro-loop") {
    out = metro(cfg, 0);
  } else if (cfg.workload == "metro-shard4") {
    out = metro(cfg, 4);
  } else {
    throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
  }

  Json host = Json::object();
  host.set("e2e_s", Json::number(out.host.e2e_s));
  host.set("setup_s", Json::number(out.host.setup_s));
  host.set("plan_s", Json::number(out.host.plan_s));
  host.set("sim_s", Json::number(out.host.sim_s));
  host.set("export_s", Json::number(out.host.export_s));
  host.set("peak_rss_mb", Json::number(peak_rss_mb()));
  Json replan = Json::array();
  for (double v : out.host.replan_s) replan.push_back(Json::number(v));
  host.set("replan_s", std::move(replan));

  Json doc = Json::object();
  doc.set("workload", Json::string(cfg.workload));
  doc.set("seed", Json::number(static_cast<double>(cfg.seed)));
  doc.set("traced", Json::boolean(cfg.traced));
  doc.set("correct", Json::boolean(out.checks.ok()));
  doc.set("checks", out.checks.to_json());
  doc.set("host", std::move(host));
  doc.set("sim", sim_stats(out.metrics));
  if (cfg.traced) {
    doc.set("layers", std::move(out.layers));
    Checks span_write;
    write_text(cfg.out_dir + "/" + cfg.workload + "-seed" +
                   std::to_string(cfg.seed) + "-p" +
                   std::to_string(cfg.pipeline) + ".spans.json",
               out.spans.dump() + "\n", span_write);
    if (!span_write.ok()) doc.set("correct", Json::boolean(false));
  }
  return doc;
}

}  // namespace perfbench
