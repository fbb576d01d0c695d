#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/decision.hpp"
#include "core/instance.hpp"
#include "core/observation.hpp"
#include "edge/dynamics.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/compiled_device.hpp"
#include "sim/epoch.hpp"
#include "sim/fluid.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace scalpel {
class SloMonitor;
class TimeSeriesRecorder;
struct ShardCore;  // per-shard event engine, private to shard.cpp

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


/// Deterministic partition of a topology into simulation shards. Cells are
/// split into contiguous blocks (devices follow their cell, and so does the
/// cell's uplink); each server joins the shard of its nearest cell by path
/// RTT (ties to the lowest cell id). Any (cell, server) pair with zero path
/// RTT is merged into one shard — conservative parallel execution needs a
/// strictly positive minimum cross-shard delay.
///
/// `lookahead` is that minimum: the smallest path RTT over all cross-shard
/// (cell, server) pairs, +inf when no pair crosses. It depends only on the
/// topology, never on the Decision, so it stays valid under online replans
/// that retarget devices to any server.
struct ShardPlan {
  std::vector<std::int32_t> cell_shard;    // by CellId
  std::vector<std::int32_t> server_shard;  // by ServerId
  std::vector<std::int32_t> device_shard;  // by DeviceId (= its cell's shard)
  std::size_t num_shards = 1;              // after zero-RTT merging
  double lookahead = 0.0;                  // seconds; +inf if nothing crosses

  /// Pure function of (topology, requested): identical for any thread count.
  static ShardPlan build(const ClusterTopology& topo, std::size_t requested);
};

struct ShardOptions {
  /// Requested shard count; clamped to the cell count and reduced by
  /// zero-RTT merging (see ShardPlan). 1 runs one event loop on the calling
  /// thread (what Simulator does).
  std::size_t shards = 2;
  /// Worker threads the epochs fan out on; 0 = one per usable CPU,
  /// 1 = run shards sequentially on the calling thread (still the same
  /// results — the determinism bar is bit-identity across both knobs).
  std::size_t threads = 1;
};

/// The event engine: a trace-driven discrete-event simulator of the edge
/// deployment executing a Decision — FCFS device queues, fluid-GPS shared
/// cell uplinks, fluid-GPS shared servers, Poisson arrivals, per-task
/// difficulty driving the exits. It validates the analytical objective
/// (core/objective.hpp: M/G/1 device, M/D/1 upload and M/G/1 server stages)
/// and exposes effects the closed form cannot (work-conserving spare
/// capacity, transient overload, bandwidth dynamics).
///
/// The engine is cell-sharded with conservative lookahead. Each shard owns a
/// contiguous block of cells (devices + cell uplinks) plus a server
/// partition, and runs its own event loop over its own
/// EventQueue/TaskPool/tracer between epoch barriers. Barriers sit on every
/// scripted global event (fault transitions, bandwidth change-points,
/// controller and obs ticks) and at most `lookahead` apart; a serial
/// reduction phase at each barrier delivers cross-shard task envelopes,
/// applies faults/bandwidth, runs the controller, and takes the obs sample.
/// Simulator (sim/simulator.hpp) is this engine at one shard.
///
/// Ordering rule: at a barrier instant every scripted event (serial phase)
/// precedes every task event of that instant, and task events keep their
/// (time, seq) order within a shard.
///
/// Determinism bar (pinned by tests/sim/sim_golden_test.cpp): for a fixed
/// seed, SimMetrics, the metrics registry, and the reconciled trace are
/// bit-identical for ANY shard count and ANY thread count. Order-sensitive
/// floating-point accumulation is made exact by feeding MetricRecords to
/// one accounting routine in the canonical merged order (see account()).
class ShardedSimulator {
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
    /// (Simulator::trace().dropped(), trace_dropped()).
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

  ShardedSimulator(const ProblemInstance& instance, Decision decision,
                   Options options, ShardOptions shard_options);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  /// Attach a bandwidth trace to a cell (defaults to constant at the
  /// topology's configured bandwidth).
  void set_cell_trace(CellId cell, BandwidthTrace trace);

  /// Attach a controller, called at every control tick in the serial phase
  /// (requires options.control_interval > 0).
  void set_controller(ObservingController controller);

  /// Static per-device admission gate: each arrival at device i is admitted
  /// with probability fraction[i] (Bernoulli on a dedicated RNG substream so
  /// the arrival/difficulty streams stay identical to an ungated run).
  /// Refused arrivals are shed. An empty vector clears the gate.
  void set_admission(std::vector<double> fraction);

  /// Runs to the horizon. Single-use.
  SimMetrics run();

  /// Merged per-task lifecycle trace of the finished run in the canonical
  /// reconciled order (see reconcile_trace); empty unless
  /// Options::trace_capacity > 0.
  std::vector<TraceEvent> trace_events() const;
  /// Events the run's trace rings overwrote (summed over the rings), so
  /// trace_events().size() + trace_dropped() is every event recorded.
  std::uint64_t trace_dropped() const;

  /// Structured counters/gauges/histograms the run publishes into (always
  /// on; counters cover the whole run including warmup, matching the
  /// SimMetrics conservation fields; see README "Observability" for names).
  /// Per-shard counters are summed, so the registry is name-for-name and
  /// value-for-value identical for any shard and thread count.
  const MetricsRegistry& registry() const { return registry_; }

  const ShardPlan& plan() const { return plan_; }
  /// Epoch barriers the run synchronized on (available after run()).
  std::size_t barriers_run() const { return barriers_run_; }

 protected:
  /// The ring serial-phase trace events go to: at one shard the only
  /// shard's ring, which then holds the run's whole trace.
  const TaskTracer& serial_tracer() const { return *serial_tracer_; }

 private:
  friend struct ShardCore;

  void apply_decision(const Decision& decision);
  void seed_initial_events();
  std::vector<EpochBarrier> build_agenda() const;
  void run_epochs(ThreadPool* pool, double barrier);
  void serial_phase(const EpochBarrier& barrier);
  void deliver_envelopes();
  void on_fault_event(const FaultEvent& ev, double bt);
  void on_server_down(ServerId s, double bt);
  void on_link_down(CellId c, double bt);
  /// handle_fault with cross-shard awareness: migrates the task row to its
  /// device's home shard first (fault policies re-enter the device stage),
  /// then runs the ordinary policy logic there. Serial-phase only.
  void serial_handle_fault(ShardCore& owner, TaskIndex task);
  TaskIndex migrate_task(ShardCore& from, ShardCore& to, TaskIndex task);
  /// Global fluid slot -> resource; slots are [0, #cells) cell uplinks, then
  /// servers — the same layout kFluidWake events carry in `a`.
  FluidResource* fluid_at(std::size_t slot);
  /// Tasks in each device's pipeline: device backlog, then queued or in
  /// service at its upload stage and its server chains. The load signal of
  /// both the controller tick and the obs sample.
  std::vector<std::size_t> queue_depths() const;
  void controller_tick(double bt);
  /// Observability sample — runs last at an obs barrier.
  void obs_sample(double bt);
  /// Folds one order-sensitive record into the metrics. Records must
  /// arrive in the canonical merged order (metric_record_before): at one
  /// shard that is processing order, so records are accounted as they
  /// happen; with several shards the logs are merged after the run.
  void account(const MetricRecord& r);
  /// A record emitted by the serial phase: accounted at once at one shard,
  /// else logged with the next serial sequence number.
  void record_serial(MetricRecord r);
  void finalize_metrics();

  const ProblemInstance* instance_;
  Decision decision_;
  Options options_;
  ShardOptions shard_options_;
  ShardPlan plan_;

  // --- shared world state: written only in serial phases or by the owning
  // shard on disjoint per-device/per-resource slots, read freely mid-epoch.
  std::vector<CompiledDevice> devices_;           // by DeviceId
  std::vector<Rng> rngs_;                         // by DeviceId
  std::vector<Rng> admit_rngs_;                   // by DeviceId
  std::vector<std::unique_ptr<FluidResource>> cell_links_;  // by CellId
  std::vector<std::unique_ptr<FluidResource>> servers_;     // by ServerId
  std::vector<std::optional<BandwidthTrace>> traces_;
  ObservingController controller_;
  /// Telemetry impairment model (pure function of options + seed), sampled
  /// only in the serial phase's controller tick, so readings are thread-
  /// and shard-count-invariant.
  std::unique_ptr<TelemetryChannel> channel_;
  std::vector<double> admit_fraction_;
  std::vector<std::size_t> arrivals_since_tick_;
  double last_controller_tick_ = 0.0;
  std::vector<bool> server_up_;
  std::vector<bool> link_up_;
  std::size_t down_servers_ = 0;
  std::size_t down_links_ = 0;
  PlanModelCache cache_;

  std::vector<std::unique_ptr<ShardCore>> cores_;

  // --- serial-phase accounting (single-threaded by construction).
  std::vector<MetricRecord> serial_log_;
  /// Where serial-phase trace events go: the only shard's ring at one
  /// shard (no second ring to allocate), else serial_ring_.
  TaskTracer* serial_tracer_ = nullptr;
  TaskTracer serial_ring_;
  std::uint64_t serial_seq_ = 0;
  std::size_t serial_events_ = 0;      // scripted dispatches (events_processed)
  double serial_last_time_ = 0.0;      // last barrier that dispatched anything
  std::size_t barriers_run_ = 0;

  SimMetrics metrics_;
  MetricsRegistry registry_;
  Counter* ctr_arrived_ = nullptr;
  Counter* ctr_completed_ = nullptr;
  Counter* ctr_failed_ = nullptr;
  Counter* ctr_shed_ = nullptr;
  Counter* ctr_expired_ = nullptr;
  Counter* ctr_retry_ = nullptr;
  Counter* ctr_resteer_ = nullptr;
  Counter* ctr_gate_refused_ = nullptr;
  Counter* ctr_server_down_ = nullptr;
  Counter* ctr_link_down_ = nullptr;
  Counter* ctr_deadline_met_ = nullptr;
  Counter* ctr_deadline_total_ = nullptr;
  HistogramMetric* hist_latency_ = nullptr;
};

}  // namespace scalpel
