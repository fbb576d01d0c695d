#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "core/decision.hpp"
#include "core/instance.hpp"
#include "sim/compiled_device.hpp"
#include "sim/epoch.hpp"
#include "sim/fluid.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace scalpel {

struct ShardCore;  // per-shard event engine, private to shard.cpp

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

/// The event engine: a cell-sharded conservative-lookahead discrete-event
/// simulator. Each shard owns a contiguous block of cells (devices + cell
/// uplinks) plus a server partition, and runs its own event loop over its
/// own EventQueue/TaskPool/tracer between epoch barriers. Barriers sit on
/// every scripted global event (fault transitions, bandwidth change-points,
/// controller and obs ticks) and at most `lookahead` apart; a serial
/// reduction phase at each barrier delivers cross-shard task envelopes,
/// applies faults/bandwidth, runs the controller, and takes the obs
/// sample. Simulator is this engine at one shard.
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
  ShardedSimulator(const ProblemInstance& instance, Decision decision,
                   Simulator::Options options, ShardOptions shard_options);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  void set_cell_trace(CellId cell, BandwidthTrace trace);
  void set_controller(Simulator::ObservingController controller);
  void set_admission(std::vector<double> fraction);

  /// Runs to the horizon. Single-use, like Simulator.
  SimMetrics run();

  /// Merged per-task lifecycle trace of the finished run in the canonical
  /// reconciled order (see reconcile_trace); empty unless
  /// Options::trace_capacity > 0.
  std::vector<TraceEvent> trace_events() const;
  /// Events the run's trace rings overwrote (summed over the rings), so
  /// trace_events().size() + trace_dropped() is every event recorded.
  std::uint64_t trace_dropped() const;

  /// Merged registry: per-shard counters summed plus the accounted
  /// latency histogram and end-of-run gauges — name-for-name and
  /// value-for-value identical for any shard and thread count.
  const MetricsRegistry& registry() const { return registry_; }

  const ShardPlan& plan() const { return plan_; }
  /// Epoch barriers the run synchronized on (available after run()).
  std::size_t barriers_run() const { return barriers_run_; }

 private:
  friend struct ShardCore;
  friend class Simulator;

  /// The whole trace of a one-shard run: the serial phase records into the
  /// only shard's ring too (Simulator::trace()).
  const TaskTracer& one_shard_tracer() const;
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
  /// Tasks in each device's pipeline: device backlog, upload queue and
  /// in-flight upload, and server chains (queued or serving). The load
  /// signal of both the controller tick and the obs sample.
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
  Simulator::Options options_;
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
  Simulator::ObservingController controller_;
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
