#include "sim/epoch.hpp"

#include <cmath>
#include <cstddef>
#include <map>

#include "util/assert.hpp"

namespace scalpel {

std::vector<MetricRecord> merge_metric_records(
    const std::vector<const std::vector<MetricRecord>*>& logs) {
  std::size_t total = 0;
  for (const auto* log : logs) total += log->size();
  std::vector<MetricRecord> merged;
  merged.reserve(total);
  // Linear k-way merge: the shard count is small (<= a few dozen), so a
  // cursor scan beats heap bookkeeping, and each input is already sorted
  // (shards append in processing order; the serial log in serial_seq order).
  std::vector<std::size_t> cursor(logs.size(), 0);
  while (merged.size() < total) {
    std::size_t best = logs.size();
    for (std::size_t i = 0; i < logs.size(); ++i) {
      if (cursor[i] >= logs[i]->size()) continue;
      if (best == logs.size() ||
          metric_record_before((*logs[i])[cursor[i]],
                               (*logs[best])[cursor[best]])) {
        best = i;
      }
    }
    SCALPEL_REQUIRE(best < logs.size(), "metric-record merge lost an input");
    merged.push_back((*logs[best])[cursor[best]]);
    ++cursor[best];
  }
  return merged;
}

std::vector<EpochBarrier> build_epoch_barriers(
    double horizon, double lookahead, double control_interval,
    bool has_controller, const std::vector<double>& fault_times,
    const std::vector<std::vector<double>>& bandwidth_times,
    double obs_interval) {
  SCALPEL_REQUIRE(horizon > 0.0, "horizon must be positive");
  // Exact-keyed map: every tick category advances by the same
  // floating-point recurrence, so coincident categories (e.g. a fault scheduled on a controller tick)
  // merge into one barrier exactly.
  std::map<double, EpochBarrier> agenda;
  auto at = [&agenda](double t) -> EpochBarrier& {
    EpochBarrier& b = agenda[t];
    b.time = t;
    return b;
  };

  for (std::size_t f = 0; f < fault_times.size(); ++f) {
    if (fault_times[f] > horizon) continue;
    at(fault_times[f]).fault_events.push_back(f);
  }
  // Cells in ascending order, segments in ascending order: the order the
  // serial phase applies coincident change-points in.
  for (std::size_t c = 0; c < bandwidth_times.size(); ++c) {
    for (std::size_t s = 0; s < bandwidth_times[c].size(); ++s) {
      const double t = bandwidth_times[c][s];
      if (t <= 0.0 || t > horizon) continue;
      at(t).bandwidth_changes.emplace_back(static_cast<std::int32_t>(c), s);
    }
  }
  if (has_controller && control_interval > 0.0) {
    // t_{k+1} = t_k + interval, matching schedule(now_ + interval) where
    // now_ is the exact previous tick time.
    for (double t = control_interval; t <= horizon; t += control_interval) {
      at(t).controller = true;
    }
  }
  if (obs_interval > 0.0) {
    for (double t = obs_interval; t <= horizon; t += obs_interval) {
      at(t).obs = true;
    }
  }
  at(horizon);  // the final barrier, scripted or not

  std::vector<EpochBarrier> barriers;
  barriers.reserve(agenda.size());
  if (lookahead > 0.0 && std::isfinite(lookahead)) {
    // Conservative-lookahead fill: a cross-shard task travels at least
    // `lookahead` seconds, so with consecutive barriers at most that far
    // apart no envelope can fire inside the epoch that created it.
    double prev = 0.0;
    for (const auto& [t, barrier] : agenda) {
      while (t - prev > lookahead) {
        prev += lookahead;
        if (prev >= t) break;
        EpochBarrier filler;
        filler.time = prev;
        barriers.push_back(std::move(filler));
      }
      barriers.push_back(barrier);
      prev = t;
    }
  } else {
    for (const auto& [t, barrier] : agenda) barriers.push_back(barrier);
  }
  return barriers;
}

}  // namespace scalpel
