#include "ctrl/coordinator.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace scalpel {

namespace {

/// Seconds between reallocation rounds (grants go out only when the slice
/// matrix actually moved).
constexpr double kReallocInterval = 1.0;
/// Seconds between heartbeats to every cell (cells read any coordinator
/// message as a sign of life; explicit heartbeats cover converged phases
/// when no grants flow).
constexpr double kHeartbeatInterval = 1.0;
/// Converged when max|delta phi| stays below this across a round.
constexpr double kConvergeEps = 1e-3;

static_assert(GlobalCoordinator::kAlpha > 0.0 &&
                  GlobalCoordinator::kAlpha <= 1.0,
              "coordinator alpha must be in (0, 1]");
static_assert(GlobalCoordinator::kMinSlice >= 0.0,
              "slice floor must be non-negative");

std::vector<std::vector<double>> equal_slices(std::size_t num_cells,
                                              std::size_t num_servers) {
  return std::vector<std::vector<double>>(
      num_cells,
      std::vector<double>(num_servers, 1.0 / static_cast<double>(num_cells)));
}

}  // namespace

GlobalCoordinator::GlobalCoordinator(std::size_t num_cells,
                                     std::size_t num_servers)
    : num_cells_(num_cells), num_servers_(num_servers) {
  SCALPEL_REQUIRE(num_cells >= 1 && num_servers >= 1,
                  "coordinator needs at least one cell and one server");
  SCALPEL_REQUIRE(kMinSlice * static_cast<double>(num_cells) < 1.0,
                  "slice floor leaves no capacity to allocate");
  phi_ = equal_slices(num_cells_, num_servers_);
  demand_.assign(num_cells_, std::vector<double>(num_servers_, 0.0));
  has_demand_.assign(num_cells_, false);
  lagging_.assign(num_cells_, false);
  grant_corr_.assign(num_cells_, 0);
}

void GlobalCoordinator::receive(const CtrlMessage& msg) {
  if (msg.type != CtrlMsgType::kLoadReport) return;
  const std::size_t cell = static_cast<std::size_t>(msg.from) - 1;
  if (cell >= num_cells_ || msg.payload.size() != num_servers_) return;
  demand_[cell] = msg.payload;
  has_demand_[cell] = true;
  // Anti-entropy: the report echoes the cell's adopted epoch. A cell behind
  // the current epoch missed a grant (dropped, or wiped by its own crash);
  // since grants only flow when the matrix moves, that loss would otherwise
  // be permanent. Queue a targeted re-grant for the next tick.
  if (msg.epoch < epoch_) lagging_[cell] = true;
}

void GlobalCoordinator::send_grants(double now, ControlFabric& fabric) {
  for (std::size_t k = 0; k < num_cells_; ++k) {
    CtrlMessage m;
    m.type = CtrlMsgType::kSliceGrant;
    m.from = 0;
    m.to = 1 + static_cast<int>(k);
    m.corr = ++corr_counter_;  // endpoint 0 => top 16 bits stay zero
    m.epoch = epoch_;
    m.payload = phi_[k];
    grant_corr_[k] = m.corr;  // re-grants continue this causal chain
    fabric.send(std::move(m), now);
  }
}

void GlobalCoordinator::tick(double now, ControlFabric& fabric) {
  bool granted_all = false;
  if (now >= next_realloc_) {
    next_realloc_ = now + kReallocInterval;
    const bool any_demand =
        std::any_of(has_demand_.begin(), has_demand_.end(),
                    [](bool b) { return b; });
    double max_delta = 0.0;
    if (any_demand) {
      // Damped proportional tatonnement, one server column at a time:
      // target_k = floor + residual * w_k / sum(w) with the kMinSlice floor
      // built into the target (residual = 1 - cells * floor), then
      // phi' = (1-a) phi + a target. Folding the floor in keeps the target
      // column summing to exactly 1, so the clamp and the renormalization
      // below never bind at the fixed point — a post-hoc floor would
      // inflate the column every round and leave a permanent limit cycle of
      // amplitude ~floor/2 instead of converging. With static reports the
      // target is a constant and the distance to it contracts by exactly
      // (1 - alpha) per round.
      const double residual =
          1.0 - kMinSlice * static_cast<double>(num_cells_);
      for (std::size_t s = 0; s < num_servers_; ++s) {
        double total = 0.0;
        for (std::size_t k = 0; k < num_cells_; ++k) {
          if (has_demand_[k]) total += demand_[k][s];
        }
        double col_sum = 0.0;
        for (std::size_t k = 0; k < num_cells_; ++k) {
          // A cell that never reported keeps its slice (it may just be
          // partitioned — reclaiming its capacity is the *demand* signal's
          // job, not the fabric's).
          const double target =
              (total > 1e-12 && has_demand_[k])
                  ? kMinSlice + residual * demand_[k][s] / total
                  : phi_[k][s];
          double next = (1.0 - kAlpha) * phi_[k][s] + kAlpha * target;
          next = std::max(next, kMinSlice);
          max_delta = std::max(max_delta, std::abs(next - phi_[k][s]));
          phi_[k][s] = next;
          col_sum += next;
        }
        if (col_sum > 1.0) {
          for (std::size_t k = 0; k < num_cells_; ++k) phi_[k][s] /= col_sum;
        }
      }
    }
    last_max_delta_ = max_delta;
    // First round always grants (cells start on an assumed equal split and
    // need an epoch > 0 to anchor staleness); afterwards grants flow only
    // while the matrix is still moving.
    if (epoch_ == 0 || max_delta > kConvergeEps) {
      converged_ = false;
      ++epoch_;
      ++realloc_rounds_;
      log_.push_back(LogEntry{epoch_, phi_});
      send_grants(now, fabric);
      granted_all = true;
    } else {
      converged_ = true;
    }
  }
  // Targeted re-grants for cells whose reports echoed an older epoch; a
  // full grant round this tick already covered them.
  for (std::size_t k = 0; k < num_cells_; ++k) {
    if (!lagging_[k]) continue;
    lagging_[k] = false;
    if (granted_all || epoch_ == 0) continue;
    CtrlMessage m;
    m.type = CtrlMsgType::kSliceGrant;
    m.from = 0;
    m.to = 1 + static_cast<int>(k);
    // Reuse the original grant's correlation id: mint -> drop -> re-grant ->
    // adoption reads as one chain on a single id in the span timeline.
    m.corr = grant_corr_[k];
    m.epoch = epoch_;
    m.payload = phi_[k];
    ++regrants_;
    if (tracer_ != nullptr) {
      tracer_->record(ctrl_span_of(m, now, CtrlSpanEvent::kRegrant));
    }
    fabric.send(std::move(m), now);
  }
  if (now >= next_heartbeat_) {
    next_heartbeat_ = now + kHeartbeatInterval;
    for (std::size_t k = 0; k < num_cells_; ++k) {
      CtrlMessage m;
      m.type = CtrlMsgType::kHeartbeat;
      m.from = 0;
      m.to = 1 + static_cast<int>(k);
      m.corr = ++corr_counter_;
      m.epoch = epoch_;
      fabric.send(std::move(m), now);
    }
  }
}

void GlobalCoordinator::crash() {
  phi_ = equal_slices(num_cells_, num_servers_);
  demand_.assign(num_cells_, std::vector<double>(num_servers_, 0.0));
  has_demand_.assign(num_cells_, false);
  lagging_.assign(num_cells_, false);
  next_realloc_ = 0.0;
  next_heartbeat_ = 0.0;
  converged_ = false;
  last_max_delta_ = 0.0;
  epoch_ = 0;
}

void GlobalCoordinator::restart(double now) {
  if (!log_.empty()) {
    // Replay: the last entry wins (the log is append-only, entries are
    // complete snapshots). Epochs resume past every number ever issued, so
    // grants sent before the crash can never outrank grants sent after —
    // the split-brain guard needs no cell-side cooperation.
    epoch_ = log_.back().epoch;
    phi_ = log_.back().phi;
  }
  next_realloc_ = now + kReallocInterval;
  next_heartbeat_ = now;  // announce liveness immediately
}

}  // namespace scalpel
