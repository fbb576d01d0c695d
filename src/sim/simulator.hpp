#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "core/decision.hpp"
#include "core/instance.hpp"
#include "core/observation.hpp"
#include "edge/dynamics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/stats.hpp"

namespace scalpel {
class ShardedSimulator;
class SloMonitor;
class TimeSeriesRecorder;

/// Per-device and aggregate results of a simulation run.
struct DeviceMetrics {
  Samples latency;                // seconds, post-warmup completions
  std::size_t arrived = 0;
  std::size_t completed = 0;
  std::size_t failed = 0;         // dropped by the fault policy
  std::size_t shed = 0;           // dropped by the overload policy (full
                                  // queue or admission gate), post-warmup
  std::size_t expired = 0;        // dropped because the deadline was provably
                                  // unreachable (ShedExpired), post-warmup
  std::size_t resteered = 0;      // re-executed on-device after a fault
  std::size_t retries = 0;        // re-dispatch attempts after a fault
  std::size_t deadline_met = 0;   // among completed with a deadline
  /// Deadline-bearing tasks that completed, failed, or were shed/expired —
  /// a dropped task is a miss, so shedding cannot inflate satisfaction.
  std::size_t deadline_total = 0;
  double accuracy_sum = 0.0;      // sum of per-task correctness probability
  double energy_sum = 0.0;        // joules across completed tasks
  std::size_t offloaded = 0;
  std::vector<std::size_t> exit_histogram;  // index 0 = final exit, then exits
};

struct SimMetrics {
  std::vector<DeviceMetrics> per_device;
  Samples latency;                 // aggregate
  std::size_t arrived = 0;
  std::size_t completed = 0;
  double deadline_satisfaction = 1.0;  // over deadline-bearing tasks
  double measured_accuracy = 0.0;      // expectation-based
  double mean_task_energy = 0.0;       // joules per completed task
  std::vector<double> server_utilization;  // busy fraction per server
  double offload_fraction = 0.0;
  double horizon = 0.0;
  // --- fault injection (all zero/1.0 without a FaultSchedule) ---
  std::size_t failed = 0;     // post-warmup tasks dropped by the fault policy
  std::size_t retried = 0;    // post-warmup re-dispatch attempts
  std::size_t resteered = 0;  // post-warmup device-fallback re-executions
  // --- overload control (all zero without queue bounds / gate / expiry) ---
  std::size_t shed = 0;       // post-warmup overload-policy drops
  std::size_t expired = 0;    // post-warmup deadline-expiry drops
  /// Mean over servers of the up-fraction of [0, horizon] per the schedule.
  double availability = 1.0;
  /// Latencies of counted completions that either survived a fault or
  /// finished while some server/link was down (p99-during-outage etc.).
  Samples outage_latency;
  /// Whole-run conservation counters (warmup tasks included):
  ///   arrived == completed_all + failed_all + shed_all + in_flight_end
  /// Overload drops (shed + expired) are accounted separately from the
  /// fault path so queue pressure and hardware failures stay attributable.
  std::size_t completed_all = 0;
  std::size_t failed_all = 0;
  std::size_t shed_all = 0;
  std::size_t in_flight_end = 0;
  /// Discrete events dispatched by the run (arrivals, phase completions,
  /// fluid wake-ups, controller/obs ticks, ...). The denominator of the
  /// ns/event and allocations/event figures BENCH_simcore tracks; identical
  /// across shard and thread counts for a fixed seed.
  std::size_t events_processed = 0;
};

/// What to do with a task in flight on a crashed server or severed link.
enum class FaultPolicy {
  Drop,           // fail the task (counted, never completed)
  RetryOnDevice,  // re-execute the whole task on the device, device-only plan
  RetryOffload,   // back off and re-dispatch through the *current* plan
                  // (bounded retries + timeout; pairs with an online
                  // controller that excludes dead servers)
};

struct FaultOptions {
  FaultPolicy policy = FaultPolicy::RetryOnDevice;
  std::size_t max_retries = 3;  // per-task re-dispatch budget (RetryOffload)
  double retry_backoff = 0.5;   // seconds before a re-dispatch attempt
  /// A retrying task older than this (since arrival) is failed instead of
  /// re-dispatched — degraded service must stay bounded.
  double retry_timeout = 30.0;
  FaultSchedule schedule;
};

/// Which task a full bounded queue sacrifices (queues stay unbounded until a
/// limit is configured in OverloadOptions).
enum class OverloadPolicy {
  Block,        // blocked-calls-cleared: the entrant is refused (tail drop)
  ShedNewest,   // the youngest task (queued or entrant, by arrival time) is
                // shed — invested work in older tasks is preserved
  ShedExpired,  // like ShedNewest, but additionally a task whose best-case
                // remaining path already overruns its deadline is dropped at
                // enqueue/dispatch instead of wasting device/server time
};

/// Bounded-queue overload protection. A limit of 0 leaves that queue
/// unbounded; with all limits 0 and the default policy the simulator
/// behaves exactly as before. Deadline-expiry shedding (ShedExpired) also
/// works with unbounded queues.
struct OverloadOptions {
  OverloadPolicy policy = OverloadPolicy::Block;
  std::size_t device_queue_limit = 0;  // tasks waiting/being computed on-device
  std::size_t upload_queue_limit = 0;  // tasks waiting behind the uplink slot
  std::size_t server_queue_limit = 0;  // tasks waiting behind the server slot
};

/// Deterministic offered-load modulation: while now is in [start, end) every
/// device's arrival rate is multiplied by `factor` (bursts compose
/// multiplicatively). Unlike burst_factor's random MMPP, this scripts a
/// reproducible burst-and-recover trace.
struct RateBurst {
  double start = 0.0;
  double end = 0.0;
  double factor = 1.0;
};

/// What a controller tick asks of the simulator: optionally swap the
/// deployment plan, optionally (re)set the per-device admission gate — the
/// probability in [0, 1] that a new arrival is admitted (an empty vector
/// clears the gate). Refused arrivals are shed and count as deadline misses.
struct ControlAction {
  std::optional<Decision> decision;
  std::optional<std::vector<double>> admit_fraction;
};

/// Trace-driven discrete-event simulator of the edge deployment executing a
/// Decision: FCFS device queues, fluid-GPS shared cell uplinks, fluid-GPS
/// shared servers, Poisson arrivals, per-task difficulty driving the exits.
/// Validates the analytical objective (M/M/1-style predictions) and exposes
/// effects the closed form cannot (work-conserving spare capacity, transient
/// overload, bandwidth dynamics).
///
/// There is one event engine, the cell-sharded one (sim/shard.hpp);
/// Simulator runs it at one shard on the calling thread. Its outputs are
/// bit-identical to ShardedSimulator's at any shard and thread count
/// (pinned by tests/sim/sim_golden_test.cpp).
class Simulator {
 public:
  struct Options {
    double horizon = 60.0;      // simulated seconds
    double warmup = 5.0;        // metrics ignore tasks arriving before this
    std::uint64_t seed = 7;
    /// Controller cadence: an attached controller runs every interval with
    /// the current Observation; its ControlAction may swap the plan.
    double control_interval = 0.0;  // 0 disables
    /// Markov-modulated arrival burstiness in [0, 1): each device flips
    /// between a high state (rate x (1+f)) and a low state (rate x (1-f))
    /// with exponential holding times of mean 2 s. 0 keeps plain Poisson
    /// arrivals (and identical RNG streams).
    double burst_factor = 0.0;
    /// Hard-failure script and in-flight-task policy (empty = no faults).
    FaultOptions faults;
    /// Bounded queues + shedding policy (defaults leave behavior unchanged).
    OverloadOptions overload;
    /// Scripted offered-load multipliers (empty = none).
    std::vector<RateBurst> rate_bursts;
    /// Per-task event tracing: ring-buffer capacity in events per shard (0
    /// disables; a disabled tracer costs one branch per lifecycle hook).
    /// Size the ring from the expected event volume — roughly 8-10 events
    /// per offloaded task — or accept oldest-first overwrites
    /// (trace().dropped(), ShardedSimulator::trace_dropped()).
    std::size_t trace_capacity = 0;
    /// Impairments on what the controller observes (delay/drop/noise/
    /// quantization on bandwidth, drop/flip on liveness). The default
    /// pass-through skips channel construction entirely, so runs without it
    /// stay bit-identical; with a channel, every signal draws from its own
    /// substream of seed (independent of the arrival/admission streams) and
    /// the channel is sampled only in the serial controller tick, so the
    /// readings are shard- and thread-count-invariant.
    TelemetryChannelOptions telemetry;
    /// Observability sampling cadence (seconds); 0 disables. Every
    /// obs_interval the engine snapshots its counters plus all sources
    /// registered on `recorder` and, if set, evaluates `slo`. Samples are
    /// taken at epoch barriers on an exact time grid, after the controller
    /// tick of a coinciding instant, so recorded series are bit-identical
    /// across shard x thread counts. Requires obs_interval <=
    /// control_interval when a controller is attached. This is the engine's
    /// only windowed time series (see TimeSeriesRecorder).
    double obs_interval = 0.0;
    /// Borrowed sink for obs samples; must outlive the run. Null disables
    /// sampling regardless of obs_interval.
    TimeSeriesRecorder* recorder = nullptr;
    /// Optional burn-rate monitor evaluated right after each sample.
    SloMonitor* slo = nullptr;
  };

  /// The controller signature: sees the (possibly impaired) per-cell
  /// bandwidths and server liveness, the per-device offered rate (arrivals/s
  /// since the last tick) and queue depth (device backlog + upload + server
  /// queues), plus the telemetry-freshness fields — the shape
  /// OnlineController::observe(const Observation&) consumes directly. The
  /// returned action may swap the plan and drive the admission gate.
  using ObservingController = std::function<ControlAction(const Observation&)>;

  Simulator(const ProblemInstance& instance, Decision decision,
            Options options);
  ~Simulator();

  /// Attach a bandwidth trace to a cell (defaults to constant at the
  /// topology's configured bandwidth).
  void set_cell_trace(CellId cell, BandwidthTrace trace);

  /// Attach an online controller (requires options.control_interval > 0).
  void set_controller(ObservingController controller);

  /// Static per-device admission gate: each arrival at device i is admitted
  /// with probability fraction[i] (Bernoulli on a dedicated RNG substream so
  /// the arrival/difficulty streams stay identical to an ungated run).
  /// Refused arrivals are shed. An empty vector clears the gate.
  void set_admission(std::vector<double> fraction);

  SimMetrics run();

  /// Per-task lifecycle events of the (finished or in-progress) run; empty
  /// unless Options::trace_capacity > 0. Events appear in causal recording
  /// order; a fixed seed yields a bit-identical stream.
  const TaskTracer& trace() const;

  /// Structured counters/gauges/histograms the run publishes into (always
  /// on; counters cover the whole run including warmup, matching the
  /// SimMetrics conservation fields). See README "Observability" for names.
  const MetricsRegistry& registry() const;

 private:
  std::unique_ptr<ShardedSimulator> engine_;
};

/// Builds the telemetry channel for a run: nullptr when `opts` is
/// pass-through, else a channel seeded from a dedicated substream of the run
/// seed, independent of the device and admission streams.
std::unique_ptr<TelemetryChannel> make_telemetry_channel(
    const TelemetryChannelOptions& opts, const ClusterTopology& topo,
    std::uint64_t seed);

}  // namespace scalpel
