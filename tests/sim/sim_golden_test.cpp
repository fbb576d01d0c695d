// Golden outputs of the event engine. Every scenario below is run through
// `Simulator` and through `ShardedSimulator` at shards {1, 2, 4} x threads
// {1, 4}, and each run must reproduce the frozen FNV-1a hashes of
//   - the serialized SimMetrics (every field and per-device row),
//   - the metrics registry JSON,
//   - the reconciled task trace (plus its recorded/dropped counts),
//   - the scenario's extra exports where present: controller or plane audit
//     log, time-series recorder, control-plane span stream.
// The scenarios are shaped like the paper benches (F4 arrival sweep, F16
// faults, F17 overload), the online/distributed controllers, the full
// observability pipeline, tasks in flight across the horizon, replicated
// fan-outs through ScenarioRunner, and a small metro-shaped device-only
// city. A hash mismatch means the engine's observable behaviour changed.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <iomanip>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/joint.hpp"
#include "core/objective.hpp"
#include "core/online.hpp"
#include "ctrl/plane.hpp"
#include "edge/builders.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "sim/runner.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

/// 64-bit FNV-1a over the exact bytes of every value fed in.
class Fnv {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(const std::string& s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void samples(const Samples& s) {
    u64(s.count());
    for (double v : s.values()) f64(v);
  }
  void doubles(const std::vector<double>& v) {
    u64(v.size());
    for (double x : v) f64(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t hash_metrics(const SimMetrics& m) {
  Fnv h;
  h.u64(m.per_device.size());
  for (const DeviceMetrics& d : m.per_device) {
    h.samples(d.latency);
    for (std::size_t v : {d.arrived, d.completed, d.failed, d.shed, d.expired,
                          d.resteered, d.retries, d.deadline_met,
                          d.deadline_total, d.offloaded}) {
      h.u64(v);
    }
    h.f64(d.accuracy_sum);
    h.f64(d.energy_sum);
    h.u64(d.exit_histogram.size());
    for (std::size_t v : d.exit_histogram) h.u64(v);
  }
  h.samples(m.latency);
  for (std::size_t v : {m.arrived, m.completed, m.failed, m.retried,
                        m.resteered, m.shed, m.expired, m.completed_all,
                        m.failed_all, m.shed_all, m.in_flight_end,
                        m.events_processed}) {
    h.u64(v);
  }
  for (double v : {m.deadline_satisfaction, m.measured_accuracy,
                   m.mean_task_energy, m.offload_fraction, m.horizon,
                   m.availability}) {
    h.f64(v);
  }
  h.doubles(m.server_utilization);
  h.samples(m.outage_latency);
  return h.value();
}

std::uint64_t hash_string(const std::string& s) {
  Fnv h;
  h.str(s);
  return h.value();
}

std::uint64_t hash_trace(const std::vector<TraceEvent>& events,
                         std::uint64_t recorded, std::uint64_t dropped) {
  Fnv h;
  h.u64(recorded);
  h.u64(dropped);
  for (const TraceEvent& e : events) {
    h.f64(e.time);
    h.u64(e.task);
    h.u64(static_cast<std::uint32_t>(e.device));
    h.u64(static_cast<std::uint32_t>(e.server));
    h.u64(static_cast<std::uint8_t>(e.type));
    h.u64(e.arg);
  }
  return h.value();
}

/// The four frozen hashes of one run. `extra` is 0 for scenarios without
/// controller, recorder or span exports.
struct Digest {
  std::uint64_t metrics = 0;
  std::uint64_t registry = 0;
  std::uint64_t trace = 0;
  std::uint64_t extra = 0;
};

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v << "ull";
  return os.str();
}

/// Per-run attachments: a fresh stateful controller (when the scenario has
/// one), the admission gate, the obs sinks, and a digest of whatever the
/// attachments exported once the run is over.
struct Attachments {
  ObservingController controller;
  std::vector<double> admission;
  TimeSeriesRecorder* recorder = nullptr;
  SloMonitor* slo = nullptr;
  std::function<std::uint64_t()> extra;
  std::shared_ptr<void> owner;  // keeps controller state alive for the run
};

struct Scenario {
  std::string name;
  std::shared_ptr<const ProblemInstance> instance;
  Decision decision;
  Simulator::Options opts;
  std::function<Attachments()> attach;  // null = no attachments
};

constexpr std::size_t kTraceCapacity = std::size_t{1} << 16;

template <class Sim>
void apply_attachments(Sim& sim, const Attachments& a) {
  if (!a.admission.empty()) sim.set_admission(a.admission);
  if (a.controller) sim.set_controller(a.controller);
}

Simulator::Options with_sinks(Simulator::Options o, const Attachments& a) {
  o.recorder = a.recorder;
  o.slo = a.slo;
  return o;
}

/// Adds a fresh TimeSeriesRecorder to every run of `attach` (or of a
/// scenario without attachments) and makes its JSON export the `extra`
/// hash: the windowed view of the run, pinned like every other output.
/// `attach` must not set an extra or an owner of its own.
std::function<Attachments()> recorded(std::function<Attachments()> attach) {
  return [attach] {
    Attachments a = attach ? attach() : Attachments{};
    auto rec = std::make_shared<TimeSeriesRecorder>(1 << 10);
    a.recorder = rec.get();
    a.extra = [rec = rec.get()] { return hash_string(rec->to_json().dump()); };
    a.owner = rec;
    return a;
  };
}

/// shards == 0 runs `Simulator`; otherwise ShardedSimulator(shards, threads).
Digest run_scenario(const Scenario& s, std::size_t shards,
                    std::size_t threads) {
  const Attachments a = s.attach ? s.attach() : Attachments{};
  const Simulator::Options opts = with_sinks(s.opts, a);
  Digest d;
  if (shards == 0) {
    Simulator sim(*s.instance, s.decision, opts);
    apply_attachments(sim, a);
    d.metrics = hash_metrics(sim.run());
    d.registry = hash_string(sim.registry().to_json().dump());
    EXPECT_EQ(sim.trace().dropped(), 0u) << "trace ring too small";
    d.trace = hash_trace(reconcile_trace(sim.trace().snapshot()),
                         sim.trace().recorded(), sim.trace().dropped());
  } else {
    ShardOptions so;
    so.shards = shards;
    so.threads = threads;
    ShardedSimulator sim(*s.instance, s.decision, opts, so);
    apply_attachments(sim, a);
    d.metrics = hash_metrics(sim.run());
    d.registry = hash_string(sim.registry().to_json().dump());
    const std::vector<TraceEvent> trace = sim.trace_events();
    d.trace = hash_trace(trace, trace.size(), 0);
  }
  if (a.extra) d.extra = a.extra();
  return d;
}

JointOptions fast_opts() {
  JointOptions o;
  o.max_iterations = 2;
  o.dp_coverage_bins = 40;
  o.theta_grid = {0.0, 0.3, 0.6};
  return o;
}

std::shared_ptr<const ProblemInstance> campus(std::uint64_t seed,
                                              std::size_t devices,
                                              std::size_t servers, double rate,
                                              std::size_t devices_per_cell) {
  clusters::CampusOptions c;
  c.seed = seed;
  c.num_devices = devices;
  c.num_servers = servers;
  c.mean_arrival_rate = rate;
  if (devices_per_cell > 0) c.devices_per_cell = devices_per_cell;
  return std::make_shared<const ProblemInstance>(clusters::campus(c));
}

Decision offload_decision(const ProblemInstance& instance, double share,
                          double bw) {
  Decision d;
  d.scheme = "test_offload";
  d.per_device.resize(instance.topology().devices().size());
  for (auto& dd : d.per_device) {
    dd.plan.partition_after = 0;
    dd.server = 0;
    dd.compute_share = share;
    dd.bandwidth = bw;
  }
  evaluate_decision(instance, d);
  return d;
}

Decision local_decision(const ProblemInstance& instance) {
  Decision d;
  d.scheme = "test_local";
  d.per_device.resize(instance.topology().devices().size());
  for (auto& dd : d.per_device) dd.plan.device_only = true;
  evaluate_decision(instance, d);
  return d;
}

std::vector<double> ramp_gate(const ProblemInstance& instance) {
  std::vector<double> gate;
  for (std::size_t i = 0; i < instance.topology().devices().size(); ++i) {
    gate.push_back(0.5 + 0.05 * static_cast<double>(i));
  }
  return gate;
}

Simulator::Options base_opts(double horizon, double warmup,
                             std::uint64_t seed) {
  Simulator::Options o;
  o.horizon = horizon;
  o.warmup = warmup;
  o.seed = seed;
  o.trace_capacity = kTraceCapacity;
  return o;
}

FaultSchedule four_faults(double s_down, double s_up, double l_down,
                          double l_up) {
  std::vector<FaultEvent> events;
  events.push_back({s_down, FaultTarget::Server, 0, false});
  events.push_back({s_up, FaultTarget::Server, 0, true});
  events.push_back({l_down, FaultTarget::Link, 0, false});
  events.push_back({l_up, FaultTarget::Link, 0, true});
  return FaultSchedule(events);
}

const FaultPolicy kFaultPolicies[] = {FaultPolicy::Drop,
                                      FaultPolicy::RetryOnDevice,
                                      FaultPolicy::RetryOffload};
const OverloadPolicy kOverloadPolicies[] = {OverloadPolicy::Block,
                                            OverloadPolicy::ShedNewest,
                                            OverloadPolicy::ShedExpired};

/// Stub cell solver for the distributed-plane scenarios: protocol
/// determinism is under test, not the optimizer.
Decision stub_cell_solver(const ProblemInstance& sub, const JointOptions&) {
  Decision plan;
  plan.scheme = "stub";
  const auto& topo = sub.topology();
  const auto n = static_cast<double>(topo.devices().size());
  plan.per_device.resize(topo.devices().size());
  for (auto& dd : plan.per_device) {
    dd.plan.partition_after = 0;
    dd.server = 0;
    dd.compute_share = 0.9 / n;
    dd.bandwidth = 0.9 * topo.cell(0).bandwidth / n;
  }
  return plan;
}

DistributedPlaneOptions lossy_plane(bool partition_cell) {
  DistributedPlaneOptions p;
  p.seed = 9;
  p.fabric.delay = 0.3;
  p.fabric.jitter = 1.5;
  p.fabric.drop_prob = 0.15;
  p.cell.solver = stub_cell_solver;
  std::vector<FaultEvent> churn;
  churn.push_back({4.0, FaultTarget::Server, 0, false});
  churn.push_back({9.0, FaultTarget::Server, 0, true});
  if (partition_cell) {
    churn.push_back({6.0, FaultTarget::Server, 3, false});
    churn.push_back({11.0, FaultTarget::Server, 3, true});
  }
  p.controller_faults = FaultSchedule(churn);
  return p;
}

/// Builds the scenarios named `want` (instances and solves are costly, so
/// each test builds only its own).
std::vector<Scenario> build_scenarios(const std::string& want) {
  std::vector<Scenario> out;
  const std::uint64_t perf_seeds[] = {3, 17, 42, 99, 123, 256};
  const std::uint64_t shard_seeds[] = {3, 17, 42, 99};

  // F4-shaped arrival sweeps on the default campus layout.
  for (const std::uint64_t seed : perf_seeds) {
    Scenario s;
    s.name = "PerfArrivalSweep_" + std::to_string(seed);
    if (s.name != want) continue;
    s.instance = campus(seed, 8, 3,
                        1.0 + 1.5 * static_cast<double>(seed % 4), 0);
    s.decision = JointOptimizer(fast_opts()).optimize(*s.instance);
    s.opts = base_opts(20.0, 2.0, seed);
    s.opts.obs_interval = 1.0;
    s.attach = recorded(nullptr);
    out.push_back(std::move(s));
  }
  // F16-shaped outages under each fault policy.
  for (const std::uint64_t seed : perf_seeds) {
    Scenario s;
    s.name = "PerfFaultSchedule_" + std::to_string(seed);
    if (s.name != want) continue;
    s.instance = campus(seed, 6, 2, 2.0, 0);
    s.decision = JointOptimizer(fast_opts()).optimize(*s.instance);
    s.opts = base_opts(20.0, 2.0, seed);
    s.opts.faults.schedule = four_faults(5.0, 9.0, 12.0, 14.0);
    s.opts.faults.policy = kFaultPolicies[seed % 3];
    out.push_back(std::move(s));
  }
  // F17-shaped: bounded queues, shedding, a scripted burst, a gate.
  for (const std::uint64_t seed : perf_seeds) {
    Scenario s;
    s.name = "PerfOverload_" + std::to_string(seed);
    if (s.name != want) continue;
    s.instance = campus(seed, 6, 2, 2.5, 0);
    s.decision = JointOptimizer(fast_opts()).optimize(*s.instance);
    s.opts = base_opts(18.0, 2.0, seed);
    s.opts.overload.policy = kOverloadPolicies[seed % 3];
    s.opts.overload.device_queue_limit = 3;
    s.opts.overload.upload_queue_limit = 2;
    s.opts.overload.server_queue_limit = 2;
    s.opts.rate_bursts.push_back(RateBurst{4.0, 10.0, 12.0});
    const std::vector<double> gate = ramp_gate(*s.instance);
    s.attach = [gate] {
      Attachments a;
      a.admission = gate;
      return a;
    };
    out.push_back(std::move(s));
  }

  // The same three shapes on a two-devices-per-cell campus, where 4 shards
  // exist and most offloads cross a shard boundary.
  for (const std::uint64_t seed : shard_seeds) {
    Scenario s;
    s.name = "ShardArrivalSweep_" + std::to_string(seed);
    if (s.name != want) continue;
    s.instance = campus(seed, 8, 3,
                        1.0 + 1.5 * static_cast<double>(seed % 4), 2);
    s.decision = JointOptimizer(fast_opts()).optimize(*s.instance);
    s.opts = base_opts(12.0, 1.0, seed);
    s.opts.obs_interval = 1.0;
    s.attach = recorded(nullptr);
    out.push_back(std::move(s));
  }
  for (const std::uint64_t seed : shard_seeds) {
    Scenario s;
    s.name = "ShardFaultSchedule_" + std::to_string(seed);
    if (s.name != want) continue;
    s.instance = campus(seed, 6, 2, 2.0, 2);
    s.decision = JointOptimizer(fast_opts()).optimize(*s.instance);
    s.opts = base_opts(12.0, 1.0, seed);
    s.opts.faults.schedule = four_faults(3.0, 5.5, 7.0, 9.0);
    s.opts.faults.policy = kFaultPolicies[seed % 3];
    out.push_back(std::move(s));
  }
  for (const std::uint64_t seed : shard_seeds) {
    Scenario s;
    s.name = "ShardOverload_" + std::to_string(seed);
    if (s.name != want) continue;
    s.instance = campus(seed, 6, 2, 2.5, 2);
    s.decision = JointOptimizer(fast_opts()).optimize(*s.instance);
    s.opts = base_opts(10.0, 1.0, seed);
    s.opts.obs_interval = 0.5;
    s.opts.burst_factor = 0.4;
    s.opts.overload.policy = kOverloadPolicies[seed % 3];
    s.opts.overload.device_queue_limit = 3;
    s.opts.overload.upload_queue_limit = 2;
    s.opts.overload.server_queue_limit = 2;
    s.opts.rate_bursts.push_back(RateBurst{3.0, 6.0, 4.0});
    const std::vector<double> gate = ramp_gate(*s.instance);
    s.attach = recorded([gate] {
      Attachments a;
      a.admission = gate;
      return a;
    });
    out.push_back(std::move(s));
  }

  // Online replanning: every tick alternates offload and device-only and
  // gates deep queues, retargeting in-flight server chains.
  if (want == "ControllerReplan") {
    Scenario s;
    s.name = "ControllerReplan";
    s.instance = campus(7, 8, 3, 2.0, 2);
    const Decision d_off = offload_decision(*s.instance, 0.1, mbps(40.0));
    const Decision d_loc = local_decision(*s.instance);
    s.decision = d_off;
    s.opts = base_opts(10.0, 1.0, 7);
    s.opts.control_interval = 0.75;
    s.opts.obs_interval = 0.75;
    s.attach = recorded([d_off, d_loc] {
      Attachments a;
      a.controller = [d_off, d_loc](const Observation& o) {
        ControlAction act;
        const bool odd = static_cast<int>(o.time / 0.75 + 0.5) % 2 != 0;
        act.decision = odd ? d_loc : d_off;
        std::vector<double> gate(o.queue_depth.size());
        for (std::size_t i = 0; i < gate.size(); ++i) {
          gate[i] = o.queue_depth[i] > 4.0 ? 0.6 : 1.0;
        }
        act.admit_fraction = std::move(gate);
        return act;
      };
      return a;
    });
    out.push_back(std::move(s));
  }

  // A stateless controller steered by impaired telemetry readings.
  if (want == "AdverseTelemetryChannel") {
    Scenario s;
    s.name = "AdverseTelemetryChannel";
    s.instance = campus(19, 8, 3, 2.0, 2);
    const Decision d_off = offload_decision(*s.instance, 0.1, mbps(40.0));
    const Decision d_loc = local_decision(*s.instance);
    s.decision = d_off;
    s.opts = base_opts(10.0, 1.0, 19);
    s.opts.control_interval = 0.75;
    s.opts.obs_interval = 0.75;
    s.opts.telemetry.delay = 0.5;
    s.opts.telemetry.drop_prob = 0.2;
    s.opts.telemetry.noise_sigma = 0.3;
    s.opts.telemetry.quantum = mbps(1.0);
    s.opts.telemetry.flip_prob = 0.1;
    s.attach = recorded([d_off, d_loc] {
      Attachments a;
      a.controller = [d_off, d_loc](const Observation& o) {
        ControlAction act;
        double sum = 0.0;
        for (const double v : o.cell_bandwidth) sum += v / mbps(1.0);
        bool any_down = false;
        for (const bool up : o.server_alive) any_down = any_down || !up;
        act.decision =
            (any_down || std::fmod(sum, 2.0) < 1.0) ? d_loc : d_off;
        return act;
      };
      return a;
    });
    out.push_back(std::move(s));
  }

  // The hardened OnlineController behind an impaired channel; its audit
  // log is the extra export.
  if (want == "HardenedOnlineController") {
    Scenario s;
    s.name = "HardenedOnlineController";
    s.instance = campus(5, 6, 2, 2.0, 2);
    s.decision = JointOptimizer(fast_opts()).optimize(*s.instance);
    s.opts = base_opts(10.0, 1.0, 5);
    s.opts.control_interval = 1.0;
    s.opts.telemetry.delay = 0.5;
    s.opts.telemetry.drop_prob = 0.25;
    s.opts.telemetry.noise_sigma = 0.25;
    s.opts.telemetry.flip_prob = 0.15;
    const auto instance = s.instance;
    s.attach = [instance] {
      OnlineController::Options copts;
      copts.hysteresis = 0.25;
      copts.joint = fast_opts();
      copts.robustness.sanitizer.confirm_windows = 2;
      copts.robustness.sanitizer.outlier_band = 0.8;
      copts.robustness.sanitizer.median_window = 3;
      copts.robustness.sanitizer.max_age = 3.0;
      copts.robustness.sanitizer.flap_threshold = 3;
      auto ctl =
          std::make_shared<OnlineController>(instance->topology(), copts);
      Attachments a;
      a.controller = ctl->callback();
      a.extra = [ctl = ctl.get()] {
        return hash_string(ctl->audit_log().to_json().dump_pretty());
      };
      a.owner = ctl;
      return a;
    };
    out.push_back(std::move(s));
  }

  // The distributed control plane on a lossy fabric with a coordinator
  // crash, a partitioned cell controller and a data-plane outage.
  if (want == "DistributedControlPlane") {
    Scenario s;
    s.name = "DistributedControlPlane";
    s.instance = campus(9, 8, 3, 2.0, 2);
    s.decision = local_decision(*s.instance);
    s.opts = base_opts(16.0, 1.0, 9);
    s.opts.control_interval = 1.0;
    s.opts.faults.schedule = FaultSchedule::server_crash(1, 7.0, 12.0);
    s.opts.faults.policy = FaultPolicy::RetryOnDevice;
    const auto instance = s.instance;
    s.attach = [instance] {
      auto plane = std::make_shared<DistributedControlPlane>(
          instance->topology(), lossy_plane(true));
      Attachments a;
      a.controller = plane->callback();
      a.extra = [p = plane.get()] {
        return hash_string(p->audit_log().to_json().dump_pretty());
      };
      a.owner = plane;
      return a;
    };
    out.push_back(std::move(s));
  }

  // The whole observability stack: span tracing on the lossy plane, the
  // time-series recorder and SLO burn-rate alerts into the audit log.
  if (want == "ObservabilityPipeline") {
    Scenario s;
    s.name = "ObservabilityPipeline";
    s.instance = campus(9, 8, 3, 2.5, 2);
    s.decision = local_decision(*s.instance);
    s.opts = base_opts(16.0, 1.0, 9);
    s.opts.control_interval = 1.0;
    s.opts.obs_interval = 0.5;
    s.opts.faults.schedule = FaultSchedule::server_crash(1, 7.0, 12.0);
    s.opts.faults.policy = FaultPolicy::RetryOnDevice;
    const auto instance = s.instance;
    s.attach = [instance] {
      struct World {
        std::unique_ptr<DistributedControlPlane> plane;
        std::unique_ptr<TimeSeriesRecorder> rec;
        std::unique_ptr<SloMonitor> slo;
      };
      auto w = std::make_shared<World>();
      DistributedPlaneOptions popts = lossy_plane(false);
      popts.span_capacity = 1 << 14;
      w->plane = std::make_unique<DistributedControlPlane>(
          instance->topology(), popts);
      w->rec = std::make_unique<TimeSeriesRecorder>(1 << 10);
      w->plane->register_sources(*w->rec);
      w->slo = std::make_unique<SloMonitor>(w->rec.get(),
                                            &w->plane->audit_log());
      SloSpec spec;
      spec.name = "deadline";
      spec.good = "sim.deadline_met";
      spec.total = "sim.deadline_total";
      spec.objective = 0.9;
      spec.windows = {{4.0, 1.0}, {12.0, 0.5}};
      w->slo->add(spec);
      Attachments a;
      a.controller = w->plane->callback();
      a.recorder = w->rec.get();
      a.slo = w->slo.get();
      a.extra = [w = w.get()] {
        Fnv h;
        h.str(w->rec->to_json().dump());
        h.str(w->plane->audit_log().to_json().dump_pretty());
        for (const CtrlSpan& sp : w->plane->ctrl_trace().snapshot()) {
          h.f64(sp.time);
          h.u64(sp.corr);
          h.u64(sp.epoch);
          h.f64(sp.price);
          h.u64(static_cast<std::uint32_t>(sp.from));
          h.u64(static_cast<std::uint32_t>(sp.to));
          h.u64(static_cast<std::uint8_t>(sp.event));
          h.u64(sp.msg);
        }
        MetricsRegistry reg;
        w->plane->publish_metrics(reg);
        h.str(reg.to_json().dump());
        return h.value();
      };
      a.owner = w;
      return a;
    };
    out.push_back(std::move(s));
  }

  // Long-RTT offloads stranded mid-flight at the horizon.
  if (want == "CrossShardInFlightAtHorizon") {
    clusters::CampusOptions c;
    c.seed = 13;
    c.num_devices = 8;
    c.num_servers = 2;
    c.devices_per_cell = 2;
    c.cell_rtt = ms(40.0);
    c.mean_arrival_rate = 6.0;
    Scenario s;
    s.name = "CrossShardInFlightAtHorizon";
    s.instance = std::make_shared<const ProblemInstance>(clusters::campus(c));
    s.decision = offload_decision(*s.instance, 0.1, mbps(40.0));
    s.opts = base_opts(4.0, 0.5, 13);
    out.push_back(std::move(s));
  }

  // A small metro-shaped city: 100-device cells under a device-only plan.
  if (want == "MetroDeviceOnly") {
    clusters::CampusOptions c;
    c.seed = 21;
    c.num_devices = 1200;
    c.num_servers = 8;
    c.devices_per_cell = 100;
    c.cell_rtt = 10e-3;
    c.mean_arrival_rate = 0.05;
    c.deadline = 0.0;
    Scenario s;
    s.name = "MetroDeviceOnly";
    s.instance = std::make_shared<const ProblemInstance>(clusters::campus(c));
    s.decision = baselines::device_only(*s.instance);
    s.opts = base_opts(30.0, 2.5, 21);
    out.push_back(std::move(s));
  }
  return out;
}

Scenario scenario(const std::string& name) {
  std::vector<Scenario> found = build_scenarios(name);
  if (found.size() != 1) {
    throw std::invalid_argument("unknown golden scenario " + name);
  }
  return std::move(found.front());
}

struct Golden {
  const char* name;
  Digest digest;
};

// Frozen outputs that every engine configuration agreed on. A mismatch is a
// change to the engine's observable behaviour.
const Golden kGoldens[] = {
    {"PerfArrivalSweep_3",
     {0x33b9a8139ea0efe4ull, 0x4fa7fe940bd28b9aull,
      0xb276944fb1b83029ull, 0xee0686b0463f65b6ull}},
    {"PerfArrivalSweep_17",
     {0xc951776c5138bb1cull, 0xddbdf14582ebccfeull,
      0xdd633ffe23638e39ull, 0x5f2fe94b0b7f2f57ull}},
    {"PerfArrivalSweep_42",
     {0x85699b56d063f997ull, 0xf8ed27e1e7d9fb4eull,
      0x08ce026a08d82af8ull, 0x0679611b90babf92ull}},
    {"PerfArrivalSweep_99",
     {0x76d5fd81d39429bdull, 0xefed799223c1f4b1ull,
      0xf96b72daf5fc747aull, 0xa2708c77a6b35fa3ull}},
    {"PerfArrivalSweep_123",
     {0xf6903c8fd8364db9ull, 0xd2eaf02d718bbb15ull,
      0x080b8adfbacf7da0ull, 0xde3e2faa43670a19ull}},
    {"PerfArrivalSweep_256",
     {0x83029cde6c0ac787ull, 0x3d3484d439ecef19ull,
      0x63628695d5cd6c35ull, 0x4e3e7d497e0a490aull}},
    {"PerfFaultSchedule_3",
     {0x4c35fa1706fbf61aull, 0x2fa727daed9e73bcull,
      0x808a1deb198830c6ull, 0}},
    {"PerfFaultSchedule_17",
     {0x0ecc9b6a53c890c8ull, 0x46be7b0ba812a9afull,
      0x5ffa07b76c429edbull, 0}},
    {"PerfFaultSchedule_42",
     {0x7a2b7bc56c2a15d7ull, 0xcb099b478a24183dull,
      0x296089a08d365b5aull, 0}},
    {"PerfFaultSchedule_99",
     {0x1c06e0bc735cb204ull, 0x9133ac48f542cf24ull,
      0x6c7a5aaec24b4435ull, 0}},
    {"PerfFaultSchedule_123",
     {0xeb0a29e4815fad2cull, 0x53d6224d97f40cd3ull,
      0x85d7de33fd2e6d4dull, 0}},
    {"PerfFaultSchedule_256",
     {0x173a32ea68993ad3ull, 0xf38bd60fde95125full,
      0xa240c7f871e2db17ull, 0}},
    {"PerfOverload_3",
     {0xed2dc73b161854b7ull, 0xc461cb569c64d4b0ull,
      0xb94a4105547359aaull, 0}},
    {"PerfOverload_17",
     {0x44f6f5fe142833e1ull, 0xb4eb9386b3260fd7ull,
      0xa34badf573e9eaf8ull, 0}},
    {"PerfOverload_42",
     {0x9ba56e4b5fafa368ull, 0x0e074be0019e86b1ull,
      0x57f5664021766d16ull, 0}},
    {"PerfOverload_99",
     {0xafe219f789ad0ff1ull, 0xa453379e27086c46ull,
      0x2069f4f69bf75afaull, 0}},
    {"PerfOverload_123",
     {0xdcea0184b6f211faull, 0xc0604d830373892eull,
      0xa7dc14b58a2dc4f3ull, 0}},
    {"PerfOverload_256",
     {0x4ded3d868bbc29ddull, 0x62ffc47d7303e99dull,
      0x0482d306dbab9d65ull, 0}},
    {"ShardArrivalSweep_3",
     {0x85dd3658e27fdc4aull, 0xe6b19a9b1deb50c0ull,
      0x1bc1ba4f488497eaull, 0x7a8bff8e9230ade5ull}},
    {"ShardArrivalSweep_17",
     {0x9acdd626997ba67cull, 0xca2615d577e0b772ull,
      0x747ad6ef3460d453ull, 0x26a29926480131a7ull}},
    {"ShardArrivalSweep_42",
     {0x682c5d8449a040a8ull, 0x6736afc60a98bb7aull,
      0xd23a3373686f96ffull, 0xece20cee4773b67aull}},
    {"ShardArrivalSweep_99",
     {0x6aeeacba13afa1f3ull, 0x6afa32f1e86cf9fdull,
      0x6bf110784bb0e7bcull, 0x7874c2ad52a7119eull}},
    {"ShardFaultSchedule_3",
     {0x0776aaedc660ce99ull, 0x00d618c5296d3e58ull,
      0x1a65391f4cb599bcull, 0}},
    {"ShardFaultSchedule_17",
     {0x0497886433981ad3ull, 0x6183036c90a59e6bull,
      0x76954899ba24e686ull, 0}},
    {"ShardFaultSchedule_42",
     {0xffcb29dbf682819dull, 0x81b0b0be9d3bc6a4ull,
      0xb90ba9647c820da4ull, 0}},
    {"ShardFaultSchedule_99",
     {0xf6eb871253cbd291ull, 0xd23070e5bc7f71bcull,
      0x34271f410884481dull, 0}},
    {"ShardOverload_3",
     {0x21166cda15ea5dafull, 0xd185c622d5469e22ull,
      0x09b263d992297953ull, 0x54b513dc3ef0feeaull}},
    {"ShardOverload_17",
     {0x2bd1c60f3b0302c6ull, 0xdaa8fe16c513c019ull,
      0x92d1847a18e39749ull, 0x58fad15d9e913908ull}},
    {"ShardOverload_42",
     {0x9e2db0f83916d998ull, 0x32dd8bc849e2c1ddull,
      0xbe3bb1787205439bull, 0x46af3f47e06884b4ull}},
    {"ShardOverload_99",
     {0x8b1cc4ca33b76508ull, 0xef57c186777bbcf6ull,
      0xc7fe823d7f238eceull, 0x48ddd69173599be3ull}},
    {"ControllerReplan",
     {0x5e6c2e69a785f33eull, 0xe0b0bf91728f9ba5ull,
      0xc397f98a6ea959ceull, 0xc1773933c39ee851ull}},
    {"AdverseTelemetryChannel",
     {0x0261182eb26fabd6ull, 0xbdd4069021b28371ull,
      0x662ba36ed48fa2e6ull, 0xf083cae6665dfe00ull}},
    {"HardenedOnlineController",
     {0x817bbe35827fafbaull, 0x83f902d4f3f87790ull,
      0x3fe40b190d3c4449ull, 0x84efb9f833b05221ull}},
    {"DistributedControlPlane",
     {0x1728bae05ceb29efull, 0x71b8c4a3adf0e52dull,
      0x5705cc33c6d4badaull, 0x3d511b250336c20eull}},
    {"ObservabilityPipeline",
     {0x902577586727a243ull, 0x8fc76146370ce5e0ull,
      0x968aa4eb942c0749ull, 0x742b508e5da96675ull}},
    {"CrossShardInFlightAtHorizon",
     {0xba6fca8355530c48ull, 0x2391f305085ed3fdull,
      0x0b2c8384d0f33ca2ull, 0}},
    {"MetroDeviceOnly",
     {0x1be0118f905ae47full, 0x0bcb1cb677d78ce2ull,
      0xcbffcaef28c55334ull, 0}},
};

void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

class SimGoldenTest : public ::testing::TestWithParam<Golden> {};

void expect_digest(const Golden& g, const Digest& d) {
  EXPECT_EQ(d.metrics, g.digest.metrics)
      << "metrics hash of " << g.name << " is now " << hex(d.metrics);
  EXPECT_EQ(d.registry, g.digest.registry)
      << "registry hash of " << g.name << " is now " << hex(d.registry);
  EXPECT_EQ(d.trace, g.digest.trace)
      << "trace hash of " << g.name << " is now " << hex(d.trace);
  EXPECT_EQ(d.extra, g.digest.extra)
      << "extra hash of " << g.name << " is now " << hex(d.extra);
}

TEST_P(SimGoldenTest, EveryEngineConfigurationMatches) {
  const Golden& g = GetParam();
  const Scenario s = scenario(g.name);
  {
    SCOPED_TRACE("Simulator");
    expect_digest(g, run_scenario(s, 0, 1));
  }
  for (const std::size_t shards : {1u, 2u, 4u}) {
    for (const std::size_t threads : {1u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << "shards=" << shards << " threads=" << threads);
      expect_digest(g, run_scenario(s, shards, threads));
    }
  }
}

// Test names carry the scenario name through PrintTo.
INSTANTIATE_TEST_SUITE_P(Scenarios, SimGoldenTest, ::testing::ValuesIn(kGoldens));

// Replicated fan-outs through ScenarioRunner: one digest over every
// replication's metrics and reconciled trace, for runner thread counts
// {1, 4}.
struct RunnerScenario {
  std::string name;
  std::shared_ptr<const ProblemInstance> instance;
  Decision decision;
  ScenarioRunner::Options opts;
};

std::vector<RunnerScenario> build_runner_scenarios() {
  std::vector<RunnerScenario> out;
  {
    RunnerScenario s;
    s.name = "ReplicatedServerCrash";
    s.instance = campus(11, 5, 2, 2.0, 0);
    s.decision = JointOptimizer(fast_opts()).optimize(*s.instance);
    s.opts.replications = 4;
    s.opts.sim = base_opts(12.0, 1.0, 11);
    s.opts.sim.faults.schedule = FaultSchedule::server_crash(0, 4.0, 7.0);
    out.push_back(std::move(s));
  }
  {
    RunnerScenario s;
    s.name = "ReplicatedCrossShardCrash";
    s.instance = campus(11, 6, 2, 2.0, 2);
    s.decision = offload_decision(*s.instance, 0.1, mbps(40.0));
    s.opts.replications = 3;
    s.opts.sim = base_opts(8.0, 1.0, 11);
    s.opts.sim.faults.schedule = FaultSchedule::server_crash(0, 3.0, 5.0);
    out.push_back(std::move(s));
  }
  return out;
}

std::uint64_t run_runner(const RunnerScenario& s, std::size_t threads) {
  ScenarioRunner::Options o = s.opts;
  o.threads = threads;
  const ReplicatedMetrics agg = ScenarioRunner(*s.instance, s.decision, o).run();
  Fnv h;
  h.u64(agg.arrived);
  h.u64(agg.completed);
  h.u64(agg.failed);
  h.u64(agg.shed);
  h.u64(agg.expired);
  for (const SimMetrics& m : agg.replications) h.u64(hash_metrics(m));
  for (const auto& trace : agg.traces) {
    const std::vector<TraceEvent> canon = reconcile_trace(trace);
    h.u64(hash_trace(canon, canon.size(), 0));
  }
  return h.value();
}

struct RunnerGolden {
  const char* name;
  std::uint64_t digest;
};

const RunnerGolden kRunnerGoldens[] = {
    {"ReplicatedServerCrash", 0x9ba6cba62b7c1cb0ull},
    {"ReplicatedCrossShardCrash", 0x3e228b579eb18fb0ull},
};

void PrintTo(const RunnerGolden& g, std::ostream* os) { *os << g.name; }

class SimGoldenRunnerTest : public ::testing::TestWithParam<RunnerGolden> {};

TEST_P(SimGoldenRunnerTest, EveryFanOutMatches) {
  const RunnerGolden& g = GetParam();
  static const std::vector<RunnerScenario> all = build_runner_scenarios();
  const RunnerScenario* s = nullptr;
  for (const RunnerScenario& r : all) {
    if (r.name == g.name) s = &r;
  }
  ASSERT_NE(s, nullptr) << "unknown runner scenario " << g.name;
  for (const std::size_t threads : {1u, 4u}) {
    const std::uint64_t d = run_runner(*s, threads);
    EXPECT_EQ(d, g.digest) << g.name << " threads=" << threads << " is now "
                           << hex(d);
  }
}

INSTANTIATE_TEST_SUITE_P(Runner, SimGoldenRunnerTest,
                         ::testing::ValuesIn(kRunnerGoldens));

}  // namespace
}  // namespace scalpel
