#include "sim/shard.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "obs/slo.hpp"
#include "obs/timeseries.hpp"
#include "sim/event_queue.hpp"
#include "sim/fluid.hpp"
#include "sim/task_pool.hpp"
#include "util/assert.hpp"

namespace scalpel {
namespace {

// Substream tag for the telemetry channel's RNG, derived from the run seed
// with Rng::substream_seed — NOT drawn from the master stream, so attaching
// a channel never perturbs the device/admission streams.
constexpr std::uint64_t kTelemetryStreamTag = 0x54454c454d455452ull;  // "TELEMETR"

/// The run's telemetry channel: nullptr when `opts` is pass-through, else a
/// channel seeded from a dedicated substream of the run seed, independent
/// of the device and admission streams.
std::unique_ptr<TelemetryChannel> make_telemetry_channel(
    const TelemetryChannelOptions& opts, const ClusterTopology& topo,
    std::uint64_t seed) {
  if (opts.pass_through()) return nullptr;
  std::vector<double> initial_bw;
  for (const auto& c : topo.cells()) initial_bw.push_back(c.bandwidth);
  return std::make_unique<TelemetryChannel>(
      opts, std::move(initial_bw), topo.servers().size(),
      Rng::substream_seed(seed, kTelemetryStreamTag));
}

// FluidSink tag layout: stage in the top bit, task index below. Stage 0 is
// an uplink transfer, stage 1 a server execution.
constexpr std::uint64_t kServerStageBit = 1ull << 32;

/// FIFO serialization chain of one (device, server) stream: a device's
/// offloaded tasks targeting one server queue behind one fluid slot on that
/// server. Chains are per-(device, server) — not per-device — so streams to
/// different servers (possible after an online replan moves the device) never
/// serialize against each other. A chain lives in its server's shard, so a
/// device with in-flight tasks to servers in two shards never has two shards
/// mutating shared state concurrently.
struct ServerChain {
  DeviceId device = -1;
  ServerId server = -1;
  std::int32_t next = -1;  // next chain of the same device in this shard
  QueuedStage stage;
};

/// Whole-run task counters one shard increments; summed into the registry
/// after the run (integer adds, so any shard count gives the same totals).
struct TaskCounters {
  Counter arrived;
  Counter completed;
  Counter failed;
  Counter shed;
  Counter expired;
  Counter retry;
  Counter resteer;
  Counter gate_refused;
  Counter deadline_met;
  Counter deadline_total;
};

}  // namespace

// ---------------------------------------------------------------------------
// ShardPlan

ShardPlan ShardPlan::build(const ClusterTopology& topo, std::size_t requested) {
  const auto& cells = topo.cells();
  const auto& servers = topo.servers();
  SCALPEL_REQUIRE(!cells.empty(), "shard plan needs at least one cell");

  ShardPlan p;
  const std::size_t want =
      std::max<std::size_t>(1, std::min(requested, cells.size()));

  // Contiguous cell blocks: cell c -> shard c * want / C (monotone, balanced
  // within one).
  p.cell_shard.resize(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    p.cell_shard[c] = static_cast<std::int32_t>(c * want / cells.size());
  }

  // Each server joins the shard of its nearest cell by path RTT, ties to the
  // lowest cell id — a pure function of the topology.
  p.server_shard.resize(servers.size());
  for (std::size_t s = 0; s < servers.size(); ++s) {
    std::size_t best = 0;
    double best_rtt = cells[0].rtt + servers[s].backhaul_rtt;
    for (std::size_t c = 1; c < cells.size(); ++c) {
      const double rtt = cells[c].rtt + servers[s].backhaul_rtt;
      if (rtt < best_rtt) {
        best = c;
        best_rtt = rtt;
      }
    }
    p.server_shard[s] = p.cell_shard[best];
  }

  // Merge any shards joined by a zero-RTT (cell, server) pair: conservative
  // execution needs a strictly positive minimum cross-shard delay.
  std::vector<std::int32_t> parent(want);
  for (std::size_t i = 0; i < want; ++i) parent[i] = static_cast<std::int32_t>(i);
  auto find = [&parent](std::int32_t x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(
              parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  };
  for (std::size_t s = 0; s < servers.size(); ++s) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c].rtt + servers[s].backhaul_rtt > 0.0) continue;
      const std::int32_t a = find(p.cell_shard[c]);
      const std::int32_t b = find(p.server_shard[s]);
      if (a != b) parent[static_cast<std::size_t>(b)] = a;
    }
  }
  // Compact relabel in order of first appearance over cells (server labels
  // are cell labels, so scanning cells covers every root).
  std::vector<std::int32_t> compact(want, -1);
  std::int32_t next = 0;
  for (auto& label : p.cell_shard) {
    const std::int32_t root = find(label);
    if (compact[static_cast<std::size_t>(root)] < 0) {
      compact[static_cast<std::size_t>(root)] = next++;
    }
    label = compact[static_cast<std::size_t>(root)];
  }
  for (auto& label : p.server_shard) {
    label = compact[static_cast<std::size_t>(find(label))];
    SCALPEL_REQUIRE(label >= 0, "server shard label escaped the relabel");
  }
  p.num_shards = static_cast<std::size_t>(next);

  p.device_shard.resize(topo.devices().size());
  for (std::size_t d = 0; d < p.device_shard.size(); ++d) {
    p.device_shard[d] =
        p.cell_shard[static_cast<std::size_t>(topo.devices()[d].cell)];
  }

  // Lookahead: the minimum path RTT over all cross-shard (cell, server)
  // pairs. Decision-independent, so it survives online replans.
  p.lookahead = std::numeric_limits<double>::infinity();
  for (std::size_t s = 0; s < servers.size(); ++s) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (p.server_shard[s] == p.cell_shard[c]) continue;
      p.lookahead =
          std::min(p.lookahead, cells[c].rtt + servers[s].backhaul_rtt);
    }
  }
  SCALPEL_REQUIRE(!std::isfinite(p.lookahead) || p.lookahead > 0.0,
                  "zero-RTT cross-shard pair survived shard merging");
  return p;
}

// ---------------------------------------------------------------------------
// ShardCore: one shard's event loop. Order-sensitive floating-point folds
// go out as MetricRecords (see ShardedSimulator::account); (device, server)
// chains live in the server's shard; the upload drain hands cross-shard
// tasks to the outbox instead of scheduling kServerArrive locally.

struct ShardCore final : FluidSink {
  enum class Ev : std::uint32_t {
    kArrival,       // a = device
    kDeviceDone,    // b = task index
    kServerArrive,  // b = task index (upload drained + RTT elapsed)
    kRedispatch,    // b = task index (fault-policy retry backoff elapsed)
    kFluidWake,     // a = *global* fluid slot (cells, then servers), b = epoch
    // Cross-shard offload whose target server is scripted down at the arrival
    // instant: the fault fires on the device's shard instead of the server's
    // (one event either way, so events_processed is shard-count-invariant).
    kOffloadFault,  // b = task index
  };

  ShardedSimulator* g = nullptr;
  std::int32_t sid = 0;
  std::vector<DeviceId> my_devices;  // ascending global id

  EventQueue events;
  TaskPool tasks;
  /// (device, server) chains owned by this shard's servers, in creation
  /// order; first_chain[dev] heads each device's list (-1 = none).
  std::vector<ServerChain> chains;
  std::vector<std::int32_t> first_chain;
  TaskTracer tracer;
  TaskCounters ctr;
  std::vector<MetricRecord> log;
  std::vector<TaskEnvelope> outbox;

  double now = 0.0;
  /// Last *popped* event time — the utilization clock. `now` is bumped to
  /// every barrier so serial-phase work uses the right clock, but server
  /// busy-time settles at the last dispatched event.
  double last_event_time = 0.0;
  std::size_t events_processed = 0;
  /// Set by the coordinator around serial phases: traces and records emitted
  /// while true go to the serial streams (see serial_tracer_,
  /// record_serial).
  bool serial_mode = false;

  const ClusterTopology& topo() const { return g->instance_->topology(); }

  void schedule(double t, Ev kind, std::int32_t a = -1, std::uint64_t b = 0) {
    if (t > g->options_.horizon) return;
    events.push(t, static_cast<std::uint32_t>(kind), a, b);
  }

  void trace_rec(double t, std::uint64_t id, std::int32_t dev,
                 std::int32_t srv, TraceEventType type, std::uint8_t arg = 0) {
    (serial_mode ? *g->serial_tracer_ : tracer)
        .record(t, id, dev, srv, type, arg);
  }

  void push_record(const MetricRecord& r) {
    if (serial_mode) {
      g->record_serial(r);
    } else if (g->cores_.size() == 1) {
      g->account(r);  // one shard: processing order is the merged order
    } else {
      log.push_back(r);
    }
  }

  /// kFail / kShed / kExpire records of counted tasks (kComplete carries
  /// more and is emitted inline in complete_task).
  void record_terminal(MetricRecordKind kind, TaskIndex task, double at) {
    if (!tasks.counted(task)) return;
    MetricRecord r;
    r.time = at;
    r.id = tasks.id[task];
    r.device = tasks.device[task];
    r.kind = kind;
    push_record(r);
  }

  /// This shard's (dev, srv) chain, or null when none was created yet.
  ServerChain* find_chain(DeviceId dev, ServerId srv) {
    for (std::int32_t idx = first_chain[static_cast<std::size_t>(dev)];
         idx >= 0; idx = chains[static_cast<std::size_t>(idx)].next) {
      ServerChain& chain = chains[static_cast<std::size_t>(idx)];
      if (chain.server == srv) return &chain;
    }
    return nullptr;
  }

  /// The (dev, srv) chain, created on first use. A device targets one
  /// server at a time, so its list stays one or two entries long. Creating
  /// a chain can grow `chains`, so hold no chain or stage reference across
  /// a call that may create one.
  ServerChain& chain_for(DeviceId dev, ServerId srv) {
    if (ServerChain* chain = find_chain(dev, srv)) return *chain;
    std::int32_t& head = first_chain[static_cast<std::size_t>(dev)];
    ServerChain& chain = chains.emplace_back();
    chain.device = dev;
    chain.server = srv;
    chain.next = head;
    head = static_cast<std::int32_t>(chains.size() - 1);
    return chain;
  }

  /// `dev`'s queued stage `stage` (kUpload or kServer): its cell uplink
  /// stream, or its chain to `srv` (created on first use).
  QueuedStage& stage_of(TraceStage stage, DeviceId dev, ServerId srv) {
    return stage == TraceStage::kUpload
               ? g->devices_[static_cast<std::size_t>(dev)].upload
               : chain_for(dev, srv).stage;
  }

  double burst_multiplier() const {
    double factor = 1.0;
    for (const auto& rb : g->options_.rate_bursts) {
      if (now >= rb.start && now < rb.end) factor *= rb.factor;
    }
    return factor;
  }

  bool deadline_expired(TaskIndex task, double best_case_remaining) const {
    if (g->options_.overload.policy != OverloadPolicy::ShedExpired) {
      return false;
    }
    const double deadline = topo().device(tasks.device[task]).deadline;
    if (deadline <= 0.0) return false;  // best effort never expires
    return now + best_case_remaining > tasks.arrival[task] + deadline + 1e-12;
  }

  double best_case_offload_remaining(TaskIndex task) const {
    const auto& device = topo().device(tasks.device[task]);
    const double cap =
        g->cell_links_[static_cast<std::size_t>(device.cell)]->capacity();
    const double upload =
        cap > 0.0
            ? static_cast<double>(tasks.phases[task].upload_bytes) / cap
            : 0.0;
    return upload + tasks.rtt[task] + tasks.phases[task].server_time;
  }

  /// Best-case time `task` still needs from entering `stage` (kUpload or
  /// kServer) to completing.
  double stage_remaining(TraceStage stage, TaskIndex task) const {
    return stage == TraceStage::kUpload ? best_case_offload_remaining(task)
                                        : tasks.phases[task].server_time;
  }

  /// Queues `task` behind its busy `stage` within the stage's bound; the
  /// overload policy picks who a full queue sheds. True when `task` queued.
  bool enqueue_bounded(IndexDeque& queue, TaskIndex task, TraceStage stage) {
    const OverloadOptions& ov = g->options_.overload;
    const std::size_t limit = stage == TraceStage::kUpload
                                  ? ov.upload_queue_limit
                                  : ov.server_queue_limit;
    if (limit == 0 || queue.size() < limit) {
      queue.push_back(task);
      return true;
    }
    switch (g->options_.overload.policy) {
      case OverloadPolicy::Block:
        shed_task(task, now, false);
        return false;
      case OverloadPolicy::ShedExpired:
        for (std::size_t pos = 0; pos < queue.size(); ++pos) {
          const TaskIndex t = queue.at(pos);
          if (deadline_expired(t, stage_remaining(stage, t))) {
            queue.erase_at(pos);
            shed_task(t, now, true);
            queue.push_back(task);
            return true;
          }
        }
        [[fallthrough]];
      case OverloadPolicy::ShedNewest: {
        std::size_t youngest = 0;
        for (std::size_t pos = 0; pos < queue.size(); ++pos) {
          if (tasks.arrival[queue.at(pos)] >
              tasks.arrival[queue.at(youngest)]) {
            youngest = pos;
          }
        }
        if (tasks.arrival[queue.at(youngest)] > tasks.arrival[task]) {
          const TaskIndex victim = queue.at(youngest);
          queue.erase_at(youngest);
          shed_task(victim, now, false);
          queue.push_back(task);
          return true;
        }
        shed_task(task, now, false);
        return false;
      }
    }
    return false;  // unreachable
  }

  void on_arrival(DeviceId dev) {
    const auto i = static_cast<std::size_t>(dev);
    const auto& device = topo().device(dev);
    auto& rng = g->rngs_[i];
    auto& cd = g->devices_[i];

    double rate = device.arrival_rate * burst_multiplier();
    if (g->options_.burst_factor > 0.0) {
      SCALPEL_REQUIRE(g->options_.burst_factor < 1.0,
                      "burst_factor must be in [0, 1)");
      constexpr double kBurstHold = 2.0;  // mean state holding time, seconds
      while (now >= cd.burst_state_until) {
        cd.burst_high = !cd.burst_high;
        cd.burst_state_until = std::max(now, cd.burst_state_until) +
                               rng.exponential(1.0 / kBurstHold);
      }
      rate *= cd.burst_high ? (1.0 + g->options_.burst_factor)
                            : (1.0 - g->options_.burst_factor);
    }
    const double next = now + rng.exponential(rate);
    schedule(next, Ev::kArrival, dev);
    const TaskIndex task = tasks.acquire();
    tasks.id[task] = make_task_id(dev, cd.arrival_seq++);
    tasks.device[task] = dev;
    tasks.arrival[task] = now;
    if (now >= g->options_.warmup) tasks.flags[task] |= TaskPool::kCounted;
    tasks.difficulty[task] = device.difficulty.sample(rng);
    bind_plan(task, /*resteer=*/false);

    ++g->metrics_.per_device[i].arrived;
    ctr.arrived.inc();
    ++g->arrivals_since_tick_[i];
    trace_rec(now, tasks.id[task], dev, tasks.server[task],
              TraceEventType::kArrive);

    if (!g->admit_fraction_.empty() &&
        g->admit_rngs_[i].uniform() > g->admit_fraction_[i]) {
      ctr.gate_refused.inc();
      shed_task(task, now, false);
      return;
    }

    const std::optional<double> start = device_start(task);
    if (!start) return;
    const std::size_t limit = g->options_.overload.device_queue_limit;
    if (limit > 0 && cd.device_backlog >= limit) {
      shed_task(task, now, false);
      return;
    }
    trace_rec(now, tasks.id[task], dev, -1, TraceEventType::kEnqueue,
              static_cast<std::uint8_t>(TraceStage::kDevice));
    run_on_device(task, *start);
  }

  /// Binds `task` to its device's current plan and grants, or for a resteer
  /// to the device-only fallback with no grant.
  void bind_plan(TaskIndex task, bool resteer) {
    const auto& cd = g->devices_[static_cast<std::size_t>(tasks.device[task])];
    const PlanModel& plan = resteer && cd.fallback ? *cd.fallback : *cd.plan;
    tasks.phases[task] = plan.phases_for(tasks.difficulty[task]);
    tasks.server[task] = resteer ? -1 : cd.server;
    tasks.rtt[task] = resteer ? 0.0 : cd.rtt;
    tasks.bw_weight[task] = resteer ? 0.0 : cd.bandwidth;
    tasks.cpu_weight[task] = resteer ? 0.0 : cd.share;
  }

  /// When `task` would start on its device's FCFS compute stage, or nothing
  /// when its best case from there already overruns the deadline (the task
  /// is then shed as expired).
  std::optional<double> device_start(TaskIndex task) {
    const auto& cd = g->devices_[static_cast<std::size_t>(tasks.device[task])];
    const double start = std::max(now, cd.busy_until);
    double best_case = (start - now) + tasks.phases[task].device_time;
    if (tasks.phases[task].offloaded) {
      best_case += best_case_offload_remaining(task);
    }
    if (deadline_expired(task, best_case)) {
      shed_task(task, now, true);
      return std::nullopt;
    }
    return start;
  }

  /// Commits `task` to its device's compute stage from `start`.
  void run_on_device(TaskIndex task, double start) {
    auto& cd = g->devices_[static_cast<std::size_t>(tasks.device[task])];
    ++cd.device_backlog;
    cd.busy_until = start + tasks.phases[task].device_time;
    trace_rec(start, tasks.id[task], tasks.device[task], -1,
              TraceEventType::kExecStart,
              static_cast<std::uint8_t>(TraceStage::kDevice));
    schedule(cd.busy_until, Ev::kDeviceDone, -1, task);
  }

  void finish_device_phase(TaskIndex task) {
    auto& cd = g->devices_[static_cast<std::size_t>(tasks.device[task])];
    if (cd.device_backlog > 0) --cd.device_backlog;
    tasks.device_done[task] = now;
    trace_rec(now, tasks.id[task], tasks.device[task], -1,
              TraceEventType::kExecEnd,
              static_cast<std::uint8_t>(TraceStage::kDevice));
    if (!tasks.phases[task].offloaded) {
      complete_task(task, now);
      return;
    }
    enter_stage(TraceStage::kUpload, task);
  }

  void start_server_phase(TaskIndex task) {
    SCALPEL_REQUIRE(tasks.server[task] >= 0, "offloaded task lost its server");
    // The server may have crashed while the upload or RTT was in progress.
    // Reachable only for same-shard offloads: cross-shard envelopes are sent
    // only when the fault schedule says the server is up at the arrival
    // instant, and liveness changes only at barriers the arrival epoch has
    // already applied.
    if (!g->server_up_[static_cast<std::size_t>(tasks.server[task])]) {
      handle_fault(task);
      return;
    }
    tasks.upload_done[task] = now;
    if (tasks.phases[task].server_time <= 0.0) {
      complete_task(task, now);
      return;
    }
    enter_stage(TraceStage::kServer, task);
  }

  /// Sends `task` into `stage` (kUpload or kServer): shed as expired when
  /// its best case already overruns the deadline, else started when the
  /// stage is idle and queued within the stage's bound when it is busy.
  void enter_stage(TraceStage stage, TaskIndex task) {
    if (deadline_expired(task, stage_remaining(stage, task))) {
      shed_task(task, now, true);
      return;
    }
    QueuedStage& st = stage_of(stage, tasks.device[task], tasks.server[task]);
    if (!st.busy) {
      st.busy = true;
      begin_job(stage, task);
      return;
    }
    if (enqueue_bounded(st.queue, task, stage)) {
      trace_rec(now, tasks.id[task], tasks.device[task], tasks.server[task],
                TraceEventType::kEnqueue, static_cast<std::uint8_t>(stage));
    }
  }

  /// Hands the stage's slot to its next waiting task, or idles the stage.
  void advance_stage(TraceStage stage, DeviceId dev, ServerId srv) {
    QueuedStage& st = stage_of(stage, dev, srv);
    if (st.queue.empty()) {
      st.busy = false;
      return;
    }
    const TaskIndex next = st.queue.pop_front();
    trace_rec(now, tasks.id[next], tasks.device[next], tasks.server[next],
              TraceEventType::kDispatch, static_cast<std::uint8_t>(stage));
    begin_job(stage, next);
  }

  /// Starts `task`'s job on the stage's fluid resource: the cell uplink, or
  /// the server. A task whose path is down faults and one that can no
  /// longer make its deadline expires; either first passes the slot on.
  void begin_job(TraceStage stage, TaskIndex task) {
    const DeviceId dev = tasks.device[task];
    const ServerId srv = tasks.server[task];
    const bool upload = stage == TraceStage::kUpload;
    const auto cell = static_cast<std::size_t>(topo().device(dev).cell);
    const bool live = g->server_up_[static_cast<std::size_t>(srv)] &&
                      (!upload || g->link_up_[cell]);
    if (!live || deadline_expired(task, stage_remaining(stage, task))) {
      advance_stage(stage, dev, srv);
      if (live) {
        shed_task(task, now, true);
      } else {
        handle_fault(task);
      }
      return;
    }
    stage_of(stage, dev, srv).active = task;
    const std::size_t slot =
        upload ? cell : g->cell_links_.size() + static_cast<std::size_t>(srv);
    if (upload) {
      trace_rec(now, tasks.id[task], dev, srv, TraceEventType::kUploadStart);
      g->fluid_at(slot)->add_job(
          now, static_cast<double>(tasks.phases[task].upload_bytes),
          tasks.bw_weight[task], task);
    } else {
      trace_rec(now, tasks.id[task], dev, srv, TraceEventType::kExecStart,
                static_cast<std::uint8_t>(TraceStage::kServer));
      g->fluid_at(slot)->add_job(now, tasks.phases[task].server_time,
                                 tasks.cpu_weight[task],
                                 kServerStageBit | task);
    }
    arm_fluid(slot);
  }

  void fluid_job_done(std::uint64_t tag, double at) override {
    const TaskIndex task = static_cast<TaskIndex>(tag & 0xffffffffu);
    const TraceStage stage = (tag & kServerStageBit) != 0
                                 ? TraceStage::kServer
                                 : TraceStage::kUpload;
    const DeviceId dev = tasks.device[task];
    const ServerId srv = tasks.server[task];
    stage_of(stage, dev, srv).active = kNoTask;
    if (stage == TraceStage::kServer) {
      trace_rec(at, tasks.id[task], dev, srv, TraceEventType::kExecEnd,
                static_cast<std::uint8_t>(TraceStage::kServer));
      complete_task(task, at);  // releases the pool slot
      advance_stage(stage, dev, srv);
      return;
    }
    // Uplink transfer drained.
    trace_rec(at, tasks.id[task], dev, srv, TraceEventType::kUploadEnd);
    const double t_arrive = at + tasks.rtt[task];
    if (g->plan_.server_shard[static_cast<std::size_t>(srv)] == sid) {
      schedule(t_arrive, Ev::kServerArrive, -1, task);
    } else if (t_arrive > g->options_.horizon) {
      // Same as a dropped same-shard kServerArrive past the horizon: the
      // task stays in flight, so keep its slot live.
    } else if (!g->options_.faults.schedule.server_up(srv, t_arrive)) {
      // The target is scripted down at the arrival instant (liveness only
      // changes at barriers, all applied before t_arrive's epoch), so the
      // arrival would fault on the remote shard against a device this shard
      // owns. Fault locally instead — one event, like kServerArrive.
      schedule(t_arrive, Ev::kOffloadFault, -1, task);
    } else {
      outbox.push_back(TaskEnvelope{t_arrive, tasks.take(task)});
    }
    advance_stage(stage, dev, srv);
  }

  void handle_fault(TaskIndex task) {
    tasks.flags[task] |= TaskPool::kFaulted;
    switch (g->options_.faults.policy) {
      case FaultPolicy::Drop:
        fail_task(task, now);
        return;
      case FaultPolicy::RetryOnDevice:
        reenter_device(task, /*resteer=*/true);
        return;
      case FaultPolicy::RetryOffload: {
        const auto& f = g->options_.faults;
        if (tasks.retries[task] >= f.max_retries ||
            now + f.retry_backoff - tasks.arrival[task] > f.retry_timeout) {
          fail_task(task, now);
          return;
        }
        ++tasks.retries[task];
        ctr.retry.inc();
        if (tasks.counted(task)) {
          ++g->metrics_
                .per_device[static_cast<std::size_t>(tasks.device[task])]
                .retries;
        }
        trace_rec(now, tasks.id[task], tasks.device[task], tasks.server[task],
                  TraceEventType::kRetry,
                  static_cast<std::uint8_t>(
                      std::min<std::size_t>(tasks.retries[task], 255)));
        schedule(now + f.retry_backoff, Ev::kRedispatch, -1, task);
        return;
      }
    }
  }

  /// A faulted task re-enters its device's compute stage: resteered onto
  /// the device-only fallback, or re-dispatched through the current plan
  /// once its retry backoff has elapsed.
  void reenter_device(TaskIndex task, bool resteer) {
    // Mid-epoch faults are always device-local (see start_server_phase); the
    // serial phase migrates cross-shard victims home before calling in here.
    SCALPEL_REQUIRE(
        g->plan_.device_shard[static_cast<std::size_t>(tasks.device[task])] ==
            sid,
        "fault re-entry on a shard that does not own the device");
    bind_plan(task, resteer);
    const std::optional<double> start = device_start(task);
    if (!start) return;
    if (resteer) {
      ctr.resteer.inc();
      if (tasks.counted(task)) {
        ++g->metrics_.per_device[static_cast<std::size_t>(tasks.device[task])]
              .resteered;
      }
      trace_rec(now, tasks.id[task], tasks.device[task], -1,
                TraceEventType::kResteer);
    }
    run_on_device(task, *start);
  }

  /// Registry-side deadline accounting (shed/fail/miss all count as
  /// deadline_total; only an on-time completion counts as met). Integer
  /// counters merge by addition, so per-core increments here are safe for
  /// any shard/thread count.
  void count_deadline(TaskIndex task, double latency, bool completed) {
    if (!tasks.counted(task)) return;
    const double deadline = topo().device(tasks.device[task]).deadline;
    if (deadline <= 0.0) return;
    ctr.deadline_total.inc();
    if (completed && latency <= deadline) ctr.deadline_met.inc();
  }

  void shed_task(TaskIndex task, double at, bool expired) {
    (expired ? ctr.expired : ctr.shed).inc();
    trace_rec(at, tasks.id[task], tasks.device[task], tasks.server[task],
              expired ? TraceEventType::kExpire : TraceEventType::kShed);
    record_terminal(expired ? MetricRecordKind::kExpire
                            : MetricRecordKind::kShed,
                    task, at);
    count_deadline(task, 0.0, false);
    tasks.release(task);
  }

  void fail_task(TaskIndex task, double at) {
    ctr.failed.inc();
    trace_rec(at, tasks.id[task], tasks.device[task], tasks.server[task],
              TraceEventType::kFail);
    record_terminal(MetricRecordKind::kFail, task, at);
    count_deadline(task, 0.0, false);
    tasks.release(task);
  }

  void complete_task(TaskIndex task, double at) {
    ctr.completed.inc();
    count_deadline(task, at - tasks.arrival[task], true);
    trace_rec(at, tasks.id[task], tasks.device[task], tasks.server[task],
              TraceEventType::kComplete);
    if (tasks.counted(task)) {
      MetricRecord r;
      r.time = at;
      r.id = tasks.id[task];
      r.device = tasks.device[task];
      r.kind = MetricRecordKind::kComplete;
      const TaskPhases& phases = tasks.phases[task];
      r.latency = at - tasks.arrival[task];
      r.correct_prob = phases.correct_prob;
      const auto& device = topo().device(tasks.device[task]);
      const double upload_dur =
          phases.offloaded
              ? tasks.upload_done[task] - tasks.device_done[task]
              : 0.0;
      const double idle_dur =
          phases.offloaded ? at - tasks.upload_done[task] : 0.0;
      r.energy =
          device.energy.task_energy(phases.device_time, upload_dur, idle_dur);
      r.exit_slot = phases.exit_index < 0 ? 0 : phases.exit_index + 1;
      if (tasks.faulted(task) ||
          g->down_servers_ > 0 || g->down_links_ > 0) {
        r.flags |= MetricRecord::kOutageOrFaulted;
      }
      if (phases.offloaded) r.flags |= MetricRecord::kOffloaded;
      push_record(r);
    }
    tasks.release(task);
  }

  void arm_fluid(std::size_t slot) {
    FluidResource* resource = g->fluid_at(slot);
    const double t = resource->next_completion();
    if (!std::isfinite(t)) return;
    schedule(std::max(t, now), Ev::kFluidWake,
             static_cast<std::int32_t>(slot), resource->epoch());
  }

  void dispatch(const SimEvent& ev) {
    switch (static_cast<Ev>(ev.kind)) {
      case Ev::kArrival:
        on_arrival(static_cast<DeviceId>(ev.a));
        return;
      case Ev::kDeviceDone:
        finish_device_phase(static_cast<TaskIndex>(ev.b));
        return;
      case Ev::kServerArrive:
        start_server_phase(static_cast<TaskIndex>(ev.b));
        return;
      case Ev::kRedispatch:
        reenter_device(static_cast<TaskIndex>(ev.b), /*resteer=*/false);
        return;
      case Ev::kFluidWake: {
        const std::size_t slot = static_cast<std::size_t>(ev.a);
        FluidResource* resource = g->fluid_at(slot);
        if (resource->epoch() != ev.b) return;  // stale wake-up
        resource->complete_due(now, *this);
        arm_fluid(slot);
        return;
      }
      case Ev::kOffloadFault:
        handle_fault(static_cast<TaskIndex>(ev.b));
        return;
    }
    SCALPEL_REQUIRE(false, "unknown shard event kind");
  }

  /// Processes every event strictly before `barrier`; the first event at or
  /// past it goes back with its original seq (push_raw), preserving the
  /// (time, seq) total order. Deferred peeks are not dispatches, so they do
  /// not count toward events_processed.
  void run_until(double barrier) {
    while (!events.empty()) {
      const SimEvent ev = events.pop_min();
      if (ev.time >= barrier) {
        events.push_raw(ev);
        return;
      }
      SCALPEL_REQUIRE(ev.time >= now - 1e-9, "event time went backwards");
      now = std::max(now, ev.time);
      last_event_time = now;
      ++events_processed;
      dispatch(ev);
    }
  }
};

// ---------------------------------------------------------------------------
// ShardedSimulator

FluidResource* ShardedSimulator::fluid_at(std::size_t slot) {
  return slot < cell_links_.size()
             ? cell_links_[slot].get()
             : servers_[slot - cell_links_.size()].get();
}

ShardedSimulator::ShardedSimulator(const ProblemInstance& instance,
                                   Decision decision,
                                   Options options,
                                   ShardOptions shard_options)
    : instance_(&instance), decision_(std::move(decision)),
      options_(std::move(options)), shard_options_(shard_options) {
  SCALPEL_REQUIRE(options_.horizon > 0.0, "horizon must be positive");
  SCALPEL_REQUIRE(options_.warmup >= 0.0 && options_.warmup < options_.horizon,
                  "warmup must lie inside the horizon");
  SCALPEL_REQUIRE(options_.faults.retry_backoff > 0.0 &&
                      options_.faults.retry_timeout > 0.0,
                  "fault retry backoff/timeout must be positive");
  const auto& topo = instance_->topology();
  SCALPEL_REQUIRE(decision_.per_device.size() == topo.devices().size(),
                  "decision must cover every device");
  for (const auto& ev : options_.faults.schedule.events()) {
    const auto limit = ev.target == FaultTarget::Server
                           ? topo.servers().size()
                           : topo.cells().size();
    SCALPEL_REQUIRE(ev.id >= 0 && static_cast<std::size_t>(ev.id) < limit,
                    "fault event targets an unknown server/cell");
  }
  for (const auto& rb : options_.rate_bursts) {
    SCALPEL_REQUIRE(rb.factor > 0.0 && rb.start >= 0.0 && rb.end >= rb.start,
                    "rate burst needs a positive factor and an ordered window");
  }

  plan_ = ShardPlan::build(topo, shard_options_.shards);

  // Stream layout: one master Rng, device streams drawn in global device
  // order, then every admission stream — identical realizations for any
  // shard count.
  Rng master(options_.seed);
  rngs_.reserve(topo.devices().size());
  for (std::size_t i = 0; i < topo.devices().size(); ++i) {
    rngs_.emplace_back(master.next_u64());
  }
  admit_rngs_.reserve(topo.devices().size());
  for (std::size_t i = 0; i < topo.devices().size(); ++i) {
    admit_rngs_.emplace_back(master.next_u64());
  }
  devices_.resize(topo.devices().size());
  arrivals_since_tick_.assign(topo.devices().size(), 0);
  for (const auto& cell : topo.cells()) {
    cell_links_.push_back(std::make_unique<FluidResource>(cell.bandwidth));
    traces_.push_back(std::nullopt);
  }
  for (std::size_t j = 0; j < topo.servers().size(); ++j) {
    servers_.push_back(std::make_unique<FluidResource>(1.0));
  }
  server_up_.assign(topo.servers().size(), true);
  link_up_.assign(topo.cells().size(), true);
  channel_ = make_telemetry_channel(options_.telemetry, topo, options_.seed);
  apply_decision(decision_);
  metrics_.per_device.resize(topo.devices().size());

  cores_.reserve(plan_.num_shards);
  for (std::size_t s = 0; s < plan_.num_shards; ++s) {
    auto core = std::make_unique<ShardCore>();
    core->g = this;
    core->sid = static_cast<std::int32_t>(s);
    for (std::size_t d = 0; d < topo.devices().size(); ++d) {
      if (plan_.device_shard[d] == core->sid) {
        core->my_devices.push_back(static_cast<DeviceId>(d));
      }
    }
    // Pool warm start: enough slots for every device to have a handful of
    // tasks in flight before the first growth stalls the inner loop.
    core->tasks.reserve(core->my_devices.size() * 8);
    core->first_chain.assign(topo.devices().size(), -1);
    core->tracer.reset(options_.trace_capacity);
    cores_.push_back(std::move(core));
  }

  if (cores_.size() == 1) {
    serial_tracer_ = &cores_.front()->tracer;
  } else {
    serial_ring_.reset(options_.trace_capacity);
    serial_tracer_ = &serial_ring_;
  }
  // Master registry carries the merged truth; resolving every name here keeps
  // its key set fixed even for untouched counters.
  ctr_arrived_ = &registry_.counter("sim.task.arrived");
  ctr_completed_ = &registry_.counter("sim.task.completed");
  ctr_failed_ = &registry_.counter("sim.task.failed");
  ctr_shed_ = &registry_.counter("sim.task.shed");
  ctr_expired_ = &registry_.counter("sim.task.expired");
  ctr_retry_ = &registry_.counter("sim.task.retry");
  ctr_resteer_ = &registry_.counter("sim.task.resteer");
  ctr_gate_refused_ = &registry_.counter("sim.gate.refused");
  ctr_deadline_met_ = &registry_.counter("sim.task.deadline_met");
  ctr_deadline_total_ = &registry_.counter("sim.task.deadline_total");
  ctr_server_down_ = &registry_.counter("sim.fault.server_down");
  ctr_link_down_ = &registry_.counter("sim.fault.link_down");
  hist_latency_ = &registry_.histogram("sim.task.latency_seconds", 0.0,
                                       10.0, 200);
}

ShardedSimulator::~ShardedSimulator() = default;

void ShardedSimulator::set_cell_trace(CellId cell, BandwidthTrace trace) {
  SCALPEL_REQUIRE(cell >= 0 &&
                      static_cast<std::size_t>(cell) < traces_.size(),
                  "cell id out of range");
  traces_[static_cast<std::size_t>(cell)] = std::move(trace);
}

void ShardedSimulator::set_controller(ObservingController controller) {
  SCALPEL_REQUIRE(options_.control_interval > 0.0,
                  "controller needs control_interval > 0");
  controller_ = std::move(controller);
}

void ShardedSimulator::set_admission(std::vector<double> fraction) {
  if (!fraction.empty()) {
    SCALPEL_REQUIRE(fraction.size() == devices_.size(),
                    "admission gate must cover every device");
    for (double f : fraction) {
      SCALPEL_REQUIRE(f >= 0.0 && f <= 1.0,
                      "admission fraction must be in [0, 1]");
    }
  }
  admit_fraction_ = std::move(fraction);
}

void ShardedSimulator::apply_decision(const Decision& decision) {
  SCALPEL_REQUIRE(
      decision.per_device.size() == instance_->topology().devices().size(),
      "decision must cover every device");
  if (&decision != &decision_) decision_ = decision;
  for (std::size_t i = 0; i < decision_.per_device.size(); ++i) {
    compile_device_decision(*instance_, static_cast<DeviceId>(i),
                            decision_.per_device[i], devices_[i], cache_);
  }
  cache_.evict_unused();
}

std::vector<EpochBarrier> ShardedSimulator::build_agenda() const {
  std::vector<double> fault_times;
  fault_times.reserve(options_.faults.schedule.events().size());
  for (const auto& ev : options_.faults.schedule.events()) {
    fault_times.push_back(ev.time);
  }
  std::vector<std::vector<double>> bandwidth_times(traces_.size());
  for (std::size_t c = 0; c < traces_.size(); ++c) {
    if (!traces_[c]) continue;
    for (const auto& seg : traces_[c]->segments()) {
      bandwidth_times[c].push_back(seg.start);
    }
  }
  return build_epoch_barriers(options_.horizon, plan_.lookahead,
                              options_.control_interval,
                              static_cast<bool>(controller_), fault_times,
                              bandwidth_times,
                              options_.recorder != nullptr
                                  ? options_.obs_interval
                                  : 0.0);
}

void ShardedSimulator::seed_initial_events() {
  const auto& topo = instance_->topology();
  // First arrivals in global device order — each from its own stream, but the
  // order still matters for the one-draw-per-device discipline.
  for (std::size_t i = 0; i < topo.devices().size(); ++i) {
    const auto dev = static_cast<DeviceId>(i);
    const double first =
        rngs_[i].exponential(topo.device(dev).arrival_rate);
    cores_[static_cast<std::size_t>(plan_.device_shard[i])]->schedule(
        first, ShardCore::Ev::kArrival, dev);
  }
  // Bandwidth segments starting at/before zero take effect immediately; the
  // rest are barrier work.
  for (std::size_t c = 0; c < traces_.size(); ++c) {
    if (!traces_[c]) continue;
    for (const auto& seg : traces_[c]->segments()) {
      if (seg.start <= 0.0) cell_links_[c]->set_capacity(0.0, seg.bandwidth);
    }
  }
}

void ShardedSimulator::run_epochs(ThreadPool* pool, double barrier) {
  if (pool == nullptr || cores_.size() == 1) {
    for (auto& core : cores_) core->run_until(barrier);
    return;
  }
  pool->parallel_for(0, cores_.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) cores_[i]->run_until(barrier);
  });
}

void ShardedSimulator::deliver_envelopes() {
  std::vector<TaskEnvelope> all;
  for (auto& core : cores_) {
    if (core->outbox.empty()) continue;
    all.insert(all.end(), core->outbox.begin(), core->outbox.end());
    core->outbox.clear();
  }
  if (all.empty()) return;
  // Shard-count-invariant delivery order; ties beyond (time, id) cannot occur
  // (ids are unique).
  std::sort(all.begin(), all.end(),
            [](const TaskEnvelope& x, const TaskEnvelope& y) {
              return x.arrive_time != y.arrive_time
                         ? x.arrive_time < y.arrive_time
                         : x.row.id < y.row.id;
            });
  for (const auto& env : all) {
    ShardCore& v =
        *cores_[static_cast<std::size_t>(
            plan_.server_shard[static_cast<std::size_t>(env.row.server)])];
    const TaskIndex t = v.tasks.put(env.row);
    v.schedule(env.arrive_time, ShardCore::Ev::kServerArrive, -1, t);
  }
}

TaskIndex ShardedSimulator::migrate_task(ShardCore& from, ShardCore& to,
                                         TaskIndex task) {
  if (&from == &to) return task;
  return to.tasks.put(from.tasks.take(task));
}

void ShardedSimulator::serial_handle_fault(ShardCore& owner, TaskIndex task) {
  // Fault policies re-enter the device stage, so the task must live on its
  // device's shard first; then the core's ordinary handler runs (its clock is
  // already at the barrier).
  ShardCore& home =
      *cores_[static_cast<std::size_t>(
          plan_.device_shard[static_cast<std::size_t>(
              owner.tasks.device[task])])];
  const TaskIndex local = migrate_task(owner, home, task);
  home.handle_fault(local);
}

void ShardedSimulator::on_fault_event(const FaultEvent& ev, double bt) {
  if (ev.target == FaultTarget::Server) {
    const auto s = static_cast<std::size_t>(ev.id);
    if (ev.up) {
      if (!server_up_[s]) {
        server_up_[s] = true;
        --down_servers_;
      }
    } else if (server_up_[s]) {
      on_server_down(ev.id, bt);
    }
  } else {
    const auto c = static_cast<std::size_t>(ev.id);
    if (ev.up) {
      if (!link_up_[c]) {
        link_up_[c] = true;
        --down_links_;
      }
    } else if (link_up_[c]) {
      on_link_down(ev.id, bt);
    }
  }
}

void ShardedSimulator::on_server_down(ServerId s, double bt) {
  server_up_[static_cast<std::size_t>(s)] = false;
  ++down_servers_;
  ctr_server_down_->inc();
  servers_[static_cast<std::size_t>(s)]->clear(bt);
  ShardCore& v =
      *cores_[static_cast<std::size_t>(
          plan_.server_shard[static_cast<std::size_t>(s)])];
  // Global device order, so the fault order is shard-count-invariant.
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    ServerChain* chain = v.find_chain(static_cast<DeviceId>(i), s);
    if (chain == nullptr) continue;
    for (const TaskIndex vt : chain->stage.drain()) serial_handle_fault(v, vt);
  }
}

void ShardedSimulator::on_link_down(CellId c, double bt) {
  link_up_[static_cast<std::size_t>(c)] = false;
  ++down_links_;
  ctr_link_down_->inc();
  cell_links_[static_cast<std::size_t>(c)]->clear(bt);
  ShardCore& d =
      *cores_[static_cast<std::size_t>(
          plan_.cell_shard[static_cast<std::size_t>(c)])];
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (instance_->topology().device(static_cast<DeviceId>(i)).cell != c) {
      continue;
    }
    for (const TaskIndex vt : devices_[i].upload.drain()) {
      serial_handle_fault(d, vt);
    }
  }
}

std::vector<std::size_t> ShardedSimulator::queue_depths() const {
  // Server-stage depth is scattered across the server shards' chains; sum
  // it per device (integer adds, so chain order is irrelevant).
  std::vector<std::size_t> depth(devices_.size(), 0);
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    depth[i] = devices_[i].device_backlog + devices_[i].upload.depth();
  }
  for (const auto& core : cores_) {
    for (const ServerChain& chain : core->chains) {
      depth[static_cast<std::size_t>(chain.device)] += chain.stage.depth();
    }
  }
  return depth;
}

void ShardedSimulator::controller_tick(double bt) {
  Observation o;
  o.time = bt;
  o.cell_bandwidth.resize(cell_links_.size());
  for (std::size_t c = 0; c < cell_links_.size(); ++c) {
    o.cell_bandwidth[c] = cell_links_[c]->capacity();
  }
  o.server_alive = server_up_;
  // Load signals: offered rate since the last tick plus instantaneous queue
  // depth across the device's whole pipeline. These are controller-side
  // estimates, not cluster telemetry — the channel model does not touch them.
  const double span = std::max(bt - last_controller_tick_, 1e-12);
  const std::vector<std::size_t> depth = queue_depths();
  o.offered_rate.assign(devices_.size(), 0.0);
  o.queue_depth.assign(devices_.size(), 0.0);
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    o.offered_rate[i] = static_cast<double>(arrivals_since_tick_[i]) / span;
    o.queue_depth[i] = static_cast<double>(depth[i]);
  }
  // Serial phase only: one channel sample per tick, in tick order — the
  // identical draw sequence for any shard/thread count.
  if (channel_) {
    channel_->sample(bt, o.cell_bandwidth, o.server_alive, o.bw_fresh,
                     o.bw_age, o.alive_fresh);
  }
  ControlAction action = controller_(o);
  if (action.decision) apply_decision(*action.decision);
  if (action.admit_fraction) set_admission(*action.admit_fraction);
  arrivals_since_tick_.assign(devices_.size(), 0);
  last_controller_tick_ = bt;
}

void ShardedSimulator::serial_phase(const EpochBarrier& b) {
  for (auto& core : cores_) {
    core->now = b.time;  // serial work runs on the barrier clock
    core->serial_mode = true;
  }
  // Fixed order at a barrier: envelopes only schedule (no observable
  // effect ordering), then fault events, then bandwidth change-points, then
  // the controller tick, then the obs sample.
  deliver_envelopes();
  const auto& fault_events = options_.faults.schedule.events();
  for (const std::size_t idx : b.fault_events) {
    ++serial_events_;
    serial_last_time_ = b.time;
    on_fault_event(fault_events[idx], b.time);
  }
  for (const auto& [cell, seg_idx] : b.bandwidth_changes) {
    ++serial_events_;
    serial_last_time_ = b.time;
    const auto c = static_cast<std::size_t>(cell);
    const auto& seg = traces_[c]->segments()[seg_idx];
    cell_links_[c]->set_capacity(b.time, seg.bandwidth);
    cores_[static_cast<std::size_t>(plan_.cell_shard[c])]->arm_fluid(c);
  }
  if (b.controller && controller_) {
    ++serial_events_;
    serial_last_time_ = b.time;
    controller_tick(b.time);
  }
  if (b.obs && options_.obs_interval > 0.0 && options_.recorder != nullptr) {
    ++serial_events_;
    serial_last_time_ = b.time;
    obs_sample(b.time);
  }
  for (auto& core : cores_) core->serial_mode = false;
}

void ShardedSimulator::obs_sample(double bt) {
  // Counter sums and the live-task count are integers, so per-core addition
  // order cannot perturb them; so is the queue depth. The resulting
  // EngineSample is shard-count-invariant.
  EngineSample s;
  s.time = bt;
  std::size_t live = 0;
  for (const auto& core : cores_) {
    s.arrived += core->ctr.arrived.value();
    s.completed += core->ctr.completed.value();
    s.failed += core->ctr.failed.value();
    s.shed += core->ctr.shed.value();
    s.expired += core->ctr.expired.value();
    s.deadline_met += core->ctr.deadline_met.value();
    s.deadline_total += core->ctr.deadline_total.value();
    live += core->tasks.live();
  }
  s.in_flight = static_cast<double>(live);
  std::size_t depth = 0;
  for (const std::size_t d : queue_depths()) depth += d;
  s.queue_depth = static_cast<double>(depth);
  options_.recorder->sample(s);
  if (options_.slo != nullptr) options_.slo->evaluate();
}

void ShardedSimulator::record_serial(MetricRecord r) {
  if (cores_.size() == 1) {
    account(r);
    return;
  }
  r.serial_seq = serial_seq_++;
  serial_log_.push_back(r);
}

void ShardedSimulator::account(const MetricRecord& r) {
  auto& dm = metrics_.per_device[static_cast<std::size_t>(r.device)];
  const auto& device = instance_->topology().device(r.device);
  // Every terminal of a deadline-bearing task counts: a drop is a miss.
  if (device.deadline > 0.0) ++dm.deadline_total;
  switch (r.kind) {
    case MetricRecordKind::kComplete: {
      dm.latency.add(r.latency);
      hist_latency_->add(r.latency);
      ++dm.completed;
      if ((r.flags & MetricRecord::kOutageOrFaulted) != 0) {
        metrics_.outage_latency.add(r.latency);
      }
      if (device.deadline > 0.0 && r.latency <= device.deadline) {
        ++dm.deadline_met;
      }
      dm.accuracy_sum += r.correct_prob;
      dm.energy_sum += r.energy;
      if ((r.flags & MetricRecord::kOffloaded) != 0) ++dm.offloaded;
      const auto slot = static_cast<std::size_t>(r.exit_slot);
      if (dm.exit_histogram.size() <= slot) {
        dm.exit_histogram.resize(slot + 1, 0);
      }
      ++dm.exit_histogram[slot];
      return;
    }
    case MetricRecordKind::kFail:
      ++dm.failed;
      return;
    case MetricRecordKind::kShed:
      ++dm.shed;
      return;
    case MetricRecordKind::kExpire:
      ++dm.expired;
      return;
  }
}

void ShardedSimulator::finalize_metrics() {
  metrics_.horizon = options_.horizon;
  std::size_t events = serial_events_;
  for (const auto& core : cores_) events += core->events_processed;
  metrics_.events_processed = events;
  metrics_.completed_all = ctr_completed_->value();
  metrics_.failed_all = ctr_failed_->value();
  metrics_.shed_all = ctr_shed_->value() + ctr_expired_->value();
  const std::uint64_t arrived_all = ctr_arrived_->value();
  const std::uint64_t terminal =
      metrics_.completed_all + metrics_.failed_all + metrics_.shed_all;
  SCALPEL_REQUIRE(arrived_all >= terminal,
                  "terminal events outnumber arrivals");
  metrics_.in_flight_end = static_cast<std::size_t>(arrived_all - terminal);
  std::size_t deadline_met = 0;
  std::size_t deadline_total = 0;
  double acc_sum = 0.0;
  double energy_sum = 0.0;
  std::size_t offloaded = 0;
  for (const auto& dm : metrics_.per_device) {
    metrics_.arrived += dm.arrived;
    metrics_.completed += dm.completed;
    metrics_.failed += dm.failed;
    metrics_.shed += dm.shed;
    metrics_.expired += dm.expired;
    metrics_.retried += dm.retries;
    metrics_.resteered += dm.resteered;
    metrics_.latency.merge(dm.latency);
    deadline_met += dm.deadline_met;
    deadline_total += dm.deadline_total;
    acc_sum += dm.accuracy_sum;
    energy_sum += dm.energy_sum;
    offloaded += dm.offloaded;
  }
  metrics_.deadline_satisfaction =
      deadline_total ? static_cast<double>(deadline_met) /
                           static_cast<double>(deadline_total)
                     : 1.0;
  metrics_.measured_accuracy =
      metrics_.completed ? acc_sum / static_cast<double>(metrics_.completed)
                         : 0.0;
  metrics_.mean_task_energy =
      metrics_.completed ? energy_sum / static_cast<double>(metrics_.completed)
                         : 0.0;
  metrics_.offload_fraction =
      metrics_.completed
          ? static_cast<double>(offloaded) /
                static_cast<double>(metrics_.completed)
          : 0.0;
  // Utilization settles at the last *dispatched* event's time. Barrier
  // bookkeeping bumps core->now past that, so the popped-event clocks (and
  // the last dispatching barrier) are tracked separately.
  double t_end = serial_last_time_;
  for (const auto& core : cores_) {
    t_end = std::max(t_end, core->last_event_time);
  }
  for (const auto& s : servers_) {
    metrics_.server_utilization.push_back(
        s->busy_time(std::min(t_end, options_.horizon)) / options_.horizon);
  }
  if (!options_.faults.schedule.empty() && !servers_.empty()) {
    double avail = 0.0;
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      avail += options_.faults.schedule.server_availability(
          static_cast<std::int32_t>(s), options_.horizon);
    }
    metrics_.availability = avail / static_cast<double>(servers_.size());
  }
  registry_.gauge("sim.task.in_flight_end")
      .set(static_cast<double>(metrics_.in_flight_end));
  registry_.gauge("sim.availability").set(metrics_.availability);
  registry_.gauge("sim.horizon_seconds").set(options_.horizon);
  registry_.gauge("sim.events_processed")
      .set(static_cast<double>(metrics_.events_processed));
  std::size_t live = 0;
  for (const auto& core : cores_) live += core->tasks.live();
  SCALPEL_REQUIRE(live == metrics_.in_flight_end,
                  "task pool live count diverged from in-flight accounting");
  SCALPEL_REQUIRE(metrics_.arrived == metrics_.completed_all +
                                          metrics_.failed_all +
                                          metrics_.shed_all +
                                          metrics_.in_flight_end,
                  "task conservation violated");
}

SimMetrics ShardedSimulator::run() {
  if (options_.obs_interval > 0.0 && options_.recorder != nullptr) {
    SCALPEL_REQUIRE(!controller_ ||
                        options_.obs_interval <= options_.control_interval,
                    "obs_interval must not exceed control_interval");
  }
  seed_initial_events();
  const std::vector<EpochBarrier> barriers = build_agenda();

  std::unique_ptr<ThreadPool> pool;
  if (cores_.size() > 1 && shard_options_.threads != 1) {
    pool = std::make_unique<ThreadPool>(shard_options_.threads);
  }

  for (const EpochBarrier& b : barriers) {
    run_epochs(pool.get(), b.time);
    serial_phase(b);
    ++barriers_run_;
  }
  // Everything left fires at exactly the horizon (the final barrier). Any
  // envelope it would create has arrive_time > horizon and is kept in flight
  // instead, so the outboxes stay empty.
  run_epochs(pool.get(), std::numeric_limits<double>::infinity());
  for (const auto& core : cores_) {
    SCALPEL_REQUIRE(core->outbox.empty(),
                    "cross-shard envelope created after the final barrier");
  }

  // Several shards logged their records; account for them in the merged
  // order (one shard already accounted for every record as it happened).
  if (cores_.size() > 1) {
    std::vector<const std::vector<MetricRecord>*> logs;
    logs.reserve(cores_.size() + 1);
    for (const auto& core : cores_) logs.push_back(&core->log);
    logs.push_back(&serial_log_);
    for (const MetricRecord& r : merge_metric_records(logs)) account(r);
  }
  for (const auto& core : cores_) {
    const TaskCounters& c = core->ctr;
    ctr_arrived_->inc(c.arrived.value());
    ctr_completed_->inc(c.completed.value());
    ctr_failed_->inc(c.failed.value());
    ctr_shed_->inc(c.shed.value());
    ctr_expired_->inc(c.expired.value());
    ctr_retry_->inc(c.retry.value());
    ctr_resteer_->inc(c.resteer.value());
    ctr_gate_refused_->inc(c.gate_refused.value());
    ctr_deadline_met_->inc(c.deadline_met.value());
    ctr_deadline_total_->inc(c.deadline_total.value());
  }
  finalize_metrics();
  return metrics_;
}

std::vector<TraceEvent> ShardedSimulator::trace_events() const {
  std::vector<TraceEvent> all;
  for (const auto& core : cores_) {
    const auto snap = core->tracer.snapshot();
    all.insert(all.end(), snap.begin(), snap.end());
  }
  const auto serial = serial_ring_.snapshot();
  all.insert(all.end(), serial.begin(), serial.end());
  return reconcile_trace(std::move(all));
}

std::uint64_t ShardedSimulator::trace_dropped() const {
  std::uint64_t dropped = serial_ring_.dropped();
  for (const auto& core : cores_) dropped += core->tracer.dropped();
  return dropped;
}

}  // namespace scalpel
