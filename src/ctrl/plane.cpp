#include "ctrl/plane.hpp"

#include <atomic>

#include "core/failover.hpp"
#include "core/objective.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace scalpel {

DistributedControlPlane::DistributedControlPlane(
    const ClusterTopology& topology, DistributedPlaneOptions opts)
    : opts_(std::move(opts)),
      instance_(topology),
      fabric_(opts_.fabric, 1 + topology.cells().size(), opts_.seed),
      coord_(topology.cells().size(), topology.servers().size()) {
  const std::size_t num_cells = topology.cells().size();
  cells_.reserve(num_cells);
  for (std::size_t k = 0; k < num_cells; ++k) {
    cells_.emplace_back(instance_, static_cast<CellId>(k), opts_.cell,
                        &audit_);
  }
  endpoint_up_.assign(1 + num_cells, true);
  if (opts_.span_capacity > 0) {
    ctrl_trace_.reset(opts_.span_capacity);
    fabric_.set_tracer(&ctrl_trace_);
    coord_.set_tracer(&ctrl_trace_);
    for (auto& cell : cells_) cell.set_tracer(&ctrl_trace_);
  }
}

void DistributedControlPlane::apply_liveness(double now) {
  for (std::size_t e = 0; e < endpoint_up_.size(); ++e) {
    const bool up =
        opts_.controller_faults.server_up(static_cast<std::int32_t>(e), now);
    if (up == endpoint_up_[e]) continue;
    endpoint_up_[e] = up;
    if (!up) {
      // The endpoint's queue dies with it: in-flight messages addressed to
      // it are gone, and its volatile state is wiped. Its state log is
      // stable storage and survives for the restart.
      fabric_.drop_for_dead(static_cast<int>(e), now);
      if (e == 0) {
        ++coordinator_crashes_;
        coord_.crash();
      } else {
        ++controller_crashes_;
        cells_[e - 1].crash();
      }
    } else {
      if (e == 0) {
        coord_.restart(now);
      } else {
        cells_[e - 1].restart(now);
      }
    }
  }
}

void DistributedControlPlane::route(const CtrlMessage& msg, double now) {
  if (msg.to < 0 || static_cast<std::size_t>(msg.to) >= endpoint_up_.size()) {
    return;
  }
  if (!endpoint_up_[static_cast<std::size_t>(msg.to)]) {
    ++dead_letters_;
    if (ctrl_trace_.enabled()) {
      ctrl_trace_.record(ctrl_span_of(msg, now, CtrlSpanEvent::kDeadLetter));
    }
    return;
  }
  if (msg.to == 0) {
    coord_.receive(msg);
  } else {
    cells_[static_cast<std::size_t>(msg.to) - 1].receive(msg, now);
  }
}

void DistributedControlPlane::merge() {
  const auto& topo = instance_.topology();
  const std::size_t n = topo.devices().size();
  if (merged_.per_device.size() != n) {
    merged_.per_device.assign(n, DeviceDecision{});
    for (auto& dd : merged_.per_device) dd.plan.device_only = true;
  }
  merged_.scheme = "distributed";
  for (const auto& cell : cells_) {
    if (!cell.has_plan()) continue;
    const auto& members = cell.members();
    const auto& local = cell.local();
    for (std::size_t j = 0; j < members.size(); ++j) {
      merged_.per_device[static_cast<std::size_t>(members[j])] = local[j];
    }
  }
  // Physical-capacity clamp. Cells validate locally against their slice,
  // but a split-brain mix of epochs (cell A on epoch 5's row, partitioned
  // cell B still on epoch 3's) can make per-server sums exceed 1. The
  // actuator squeezes shares proportionally — the same thing GPS weights
  // would do physically — so the merged plan always evaluates cleanly. The
  // uplinks are the observed ones: tick() wrote them into the topology.
  failover::fit_to_capacity(topo, merged_);
  evaluate_decision(instance_, merged_);
  merged_valid_ = true;
}

void DistributedControlPlane::solve_cells(
    const std::vector<CellController*>& solving) {
  // A custom solver seam runs on this thread in cell order (its contract in
  // CellControllerOptions).
  if (opts_.cell.solver || solving.size() <= 1) {
    for (CellController* cell : solving) cell->solve_pending();
    return;
  }
  // Each pool thread claims the next cell: a solve's cost varies with its
  // cell's models and slice.
  std::atomic<std::size_t> next_cell{0};
  ThreadPool& pool = ThreadPool::shared();
  pool.parallel_for(0, pool.size(), [&](std::size_t, std::size_t) {
    for (std::size_t i; (i = next_cell.fetch_add(1)) < solving.size();) {
      solving[i]->solve_pending();
    }
  });
}

ControlAction DistributedControlPlane::tick(const Observation& o) {
  const double now = o.time;
  ++ticks_;
  audit_.advance_time(now);
  SCALPEL_REQUIRE(o.cell_bandwidth.size() == cells_.size(),
                  "observation must cover every cell");

  apply_liveness(now);
  for (const CtrlMessage& msg : fabric_.deliver(now)) route(msg, now);
  if (endpoint_up_[0]) coord_.tick(now, fabric_);

  // The believed uplinks feed the cells' sub-problems and the merged
  // evaluation alike (the same conditions-adoption the centralized
  // controller performs).
  auto& mutable_topo = instance_.mutable_topology();
  for (std::size_t c = 0; c < o.cell_bandwidth.size(); ++c) {
    SCALPEL_REQUIRE(o.cell_bandwidth[c] > 0.0,
                    "observed bandwidth must be positive");
    mutable_topo.set_cell_bandwidth(static_cast<CellId>(c),
                                    o.cell_bandwidth[c]);
  }

  // The cells' checks run in cell order and decide which cells solve; the
  // solves run side by side; adoption, audit records and load reports run
  // in cell order again.
  std::vector<CellController*> solving;
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    if (!endpoint_up_[1 + k]) continue;
    if (cells_[k].begin_tick(now, o.cell_bandwidth[k], o.server_alive)) {
      solving.push_back(&cells_[k]);
    }
  }
  solve_cells(solving);
  bool changed = false;
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    if (!endpoint_up_[1 + k]) continue;
    changed |= cells_[k].finish_tick(now, fabric_);
  }

  ControlAction action;
  if (changed || !merged_valid_) {
    merge();
    ++plan_changes_;
    action.decision = merged_;
  }
  return action;
}

ObservingController DistributedControlPlane::callback() {
  return [this](const Observation& o) { return tick(o); };
}

bool DistributedControlPlane::converged() const {
  if (!coord_.converged()) return false;
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    if (!endpoint_up_[1 + k]) continue;
    if (cells_[k].adopted_epoch() != coord_.epoch()) return false;
  }
  return true;
}

std::uint64_t DistributedControlPlane::coordinator_losses() const {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.coordinator_losses();
  return total;
}

std::uint64_t DistributedControlPlane::rejoins() const {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.rejoins();
  return total;
}

std::uint64_t DistributedControlPlane::stale_events() const {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.stale_transitions();
  return total;
}

std::uint64_t DistributedControlPlane::epochs_rejected() const {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.epochs_rejected();
  return total;
}

std::uint64_t DistributedControlPlane::local_solves() const {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.local_solves();
  return total;
}

std::uint64_t DistributedControlPlane::cell_fallbacks() const {
  std::uint64_t total = 0;
  for (const auto& c : cells_) total += c.fallbacks();
  return total;
}

void DistributedControlPlane::publish_metrics(MetricsRegistry& registry)
    const {
  registry.counter("ctrl.msg.sent").inc(fabric_.sent());
  registry.counter("ctrl.msg.delivered").inc(fabric_.delivered());
  registry.counter("ctrl.msg.dropped").inc(fabric_.dropped());
  registry.counter("ctrl.msg.dropped_dead").inc(fabric_.dropped_dead());
  registry.counter("ctrl.dead_letters").inc(dead_letters_);
  registry.counter("ctrl.epochs_minted").inc(coord_.epoch());
  registry.counter("ctrl.realloc_rounds").inc(coord_.realloc_rounds());
  registry.counter("ctrl.regrants").inc(coord_.regrants());
  std::uint64_t adoptions = 0;
  for (const auto& c : cells_) adoptions += c.adoptions();
  registry.counter("ctrl.adoptions").inc(adoptions);
  registry.counter("ctrl.epochs_rejected").inc(epochs_rejected());
  registry.counter("ctrl.stale_events").inc(stale_events());
  registry.counter("ctrl.coordinator_losses").inc(coordinator_losses());
  registry.counter("ctrl.rejoins").inc(rejoins());
  registry.counter("ctrl.local_solves").inc(local_solves());
  registry.counter("ctrl.cell_fallbacks").inc(cell_fallbacks());
  registry.counter("ctrl.coordinator_crashes").inc(coordinator_crashes_);
  registry.counter("ctrl.controller_crashes").inc(controller_crashes_);
  registry.counter("ctrl.plan_changes").inc(plan_changes_);
  registry.counter("ctrl.ticks").inc(ticks_);
  registry.counter("ctrl.spans.recorded").inc(ctrl_trace_.recorded());
  registry.counter("ctrl.spans.dropped").inc(ctrl_trace_.dropped());
  registry.gauge("ctrl.in_flight")
      .set(static_cast<double>(fabric_.in_flight()));
  registry.gauge("ctrl.converged").set(converged() ? 1.0 : 0.0);
}

void DistributedControlPlane::register_sources(TimeSeriesRecorder& recorder) {
  recorder.register_gauge("ctrl.epoch", [this] {
    return static_cast<double>(coord_.epoch());
  });
  recorder.register_counter("ctrl.dead_letters", [this] {
    return static_cast<double>(dead_letters_);
  });
  recorder.register_counter("ctrl.msg.dropped", [this] {
    return static_cast<double>(fabric_.dropped());
  });
  recorder.register_counter("ctrl.regrants", [this] {
    return static_cast<double>(coord_.regrants());
  });
  for (std::size_t k = 0; k < cells_.size(); ++k) {
    const std::string base = "ctrl.cell" + std::to_string(k);
    const CellController* cell = &cells_[k];
    recorder.register_gauge(base + ".slice",
                            [cell] { return cell->slice_mean(); });
    recorder.register_gauge(base + ".price",
                            [cell] { return cell->effective_price(); });
  }
}

}  // namespace scalpel
