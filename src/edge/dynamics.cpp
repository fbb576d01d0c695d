#include "edge/dynamics.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scalpel {

BandwidthTrace::BandwidthTrace(std::vector<Segment> segments)
    : segments_(std::move(segments)) {
  SCALPEL_REQUIRE(!segments_.empty(), "trace needs at least one segment");
  double prev = segments_.front().start;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    SCALPEL_REQUIRE(segments_[i].bandwidth > 0.0,
                    "trace bandwidth must be positive");
    SCALPEL_REQUIRE(i == 0 || segments_[i].start > prev,
                    "trace segments must be strictly increasing in time");
    prev = segments_[i].start;
  }
}

double BandwidthTrace::at(double t) const {
  SCALPEL_REQUIRE(t >= segments_.front().start,
                  "time precedes the trace start");
  // Last segment whose start <= t.
  auto it = std::upper_bound(
      segments_.begin(), segments_.end(), t,
      [](double value, const Segment& s) { return value < s.start; });
  return std::prev(it)->bandwidth;
}

double BandwidthTrace::mean(double horizon) const {
  SCALPEL_REQUIRE(horizon > segments_.front().start,
                  "horizon must exceed the trace start");
  double acc = 0.0;
  for (std::size_t i = 0; i < segments_.size(); ++i) {
    const double s = segments_[i].start;
    if (s >= horizon) break;
    const double e =
        (i + 1 < segments_.size()) ? std::min(horizon, segments_[i + 1].start)
                                   : horizon;
    acc += segments_[i].bandwidth * (e - s);
  }
  return acc / (horizon - segments_.front().start);
}

BandwidthTrace BandwidthTrace::constant(double bandwidth) {
  return BandwidthTrace({Segment{0.0, bandwidth}});
}

BandwidthTrace BandwidthTrace::random_walk(double base, double step,
                                           double sigma, double range,
                                           double horizon, Rng& rng) {
  SCALPEL_REQUIRE(base > 0.0 && step > 0.0 && range >= 1.0,
                  "invalid random walk parameters");
  std::vector<Segment> segs;
  double bw = base;
  for (double t = 0.0; t < horizon; t += step) {
    segs.push_back(Segment{t, bw});
    bw *= std::exp(rng.normal(0.0, sigma));
    bw = std::clamp(bw, base / range, base * range);
  }
  return BandwidthTrace(std::move(segs));
}

FaultSchedule::FaultSchedule(std::vector<FaultEvent> events)
    : events_(std::move(events)) {
  for (const auto& ev : events_) {
    SCALPEL_REQUIRE(std::isfinite(ev.time) && ev.time >= 0.0,
                    "fault event time must be finite and non-negative");
    SCALPEL_REQUIRE(ev.id >= 0, "fault event target id must be non-negative");
  }
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
}

bool FaultSchedule::up_at(FaultTarget target, std::int32_t id,
                          double t) const {
  bool up = true;
  for (const auto& ev : events_) {
    if (ev.time > t) break;
    if (ev.target == target && ev.id == id) up = ev.up;
  }
  return up;
}

bool FaultSchedule::server_up(std::int32_t server, double t) const {
  return up_at(FaultTarget::Server, server, t);
}

bool FaultSchedule::link_up(std::int32_t cell, double t) const {
  return up_at(FaultTarget::Link, cell, t);
}

double FaultSchedule::availability(FaultTarget target, std::int32_t id,
                                   double horizon) const {
  SCALPEL_REQUIRE(horizon > 0.0, "availability horizon must be positive");
  bool up = true;
  double up_time = 0.0;
  double last = 0.0;
  for (const auto& ev : events_) {
    if (ev.target != target || ev.id != id) continue;
    const double t = std::min(ev.time, horizon);
    if (up) up_time += t - last;
    last = t;
    up = ev.up;
    if (ev.time >= horizon) break;
  }
  if (up) up_time += horizon - last;
  return up_time / horizon;
}

double FaultSchedule::server_availability(std::int32_t server,
                                          double horizon) const {
  return availability(FaultTarget::Server, server, horizon);
}

FaultSchedule FaultSchedule::merged(const FaultSchedule& other) const {
  std::vector<FaultEvent> all = events_;
  all.insert(all.end(), other.events_.begin(), other.events_.end());
  return FaultSchedule(std::move(all));
}

FaultSchedule FaultSchedule::server_crash(std::int32_t server, double down_at,
                                          double up_at) {
  SCALPEL_REQUIRE(up_at >= down_at, "recovery cannot precede the crash");
  std::vector<FaultEvent> evs{{down_at, FaultTarget::Server, server, false}};
  if (std::isfinite(up_at)) {
    evs.push_back({up_at, FaultTarget::Server, server, true});
  }
  return FaultSchedule(std::move(evs));
}

FaultSchedule FaultSchedule::link_outage(std::int32_t cell, double down_at,
                                         double up_at) {
  SCALPEL_REQUIRE(up_at >= down_at, "restore cannot precede the outage");
  std::vector<FaultEvent> evs{{down_at, FaultTarget::Link, cell, false}};
  if (std::isfinite(up_at)) {
    evs.push_back({up_at, FaultTarget::Link, cell, true});
  }
  return FaultSchedule(std::move(evs));
}

FaultSchedule FaultSchedule::exponential_servers(std::size_t num_servers,
                                                 double mtbf, double mttr,
                                                 double horizon,
                                                 const Rng& rng) {
  SCALPEL_REQUIRE(mtbf > 0.0 && mttr > 0.0, "MTBF and MTTR must be positive");
  SCALPEL_REQUIRE(horizon > 0.0, "horizon must be positive");
  std::vector<FaultEvent> evs;
  for (std::size_t s = 0; s < num_servers; ++s) {
    Rng r = rng.substream(static_cast<std::uint64_t>(s));
    const auto id = static_cast<std::int32_t>(s);
    double t = 0.0;
    while (true) {
      t += r.exponential(1.0 / mtbf);
      if (t >= horizon) break;
      evs.push_back({t, FaultTarget::Server, id, false});
      t += r.exponential(1.0 / mttr);
      if (t >= horizon) break;  // stays down past the horizon
      evs.push_back({t, FaultTarget::Server, id, true});
    }
  }
  return FaultSchedule(std::move(evs));
}

BandwidthTrace BandwidthTrace::gilbert(double good_bw, double bad_bw,
                                       double mean_good_s, double mean_bad_s,
                                       double horizon, Rng& rng) {
  SCALPEL_REQUIRE(good_bw > 0.0 && bad_bw > 0.0, "bandwidths must be positive");
  SCALPEL_REQUIRE(mean_good_s > 0.0 && mean_bad_s > 0.0,
                  "holding times must be positive");
  std::vector<Segment> segs;
  bool good = true;
  double t = 0.0;
  while (t < horizon) {
    segs.push_back(Segment{t, good ? good_bw : bad_bw});
    t += rng.exponential(1.0 / (good ? mean_good_s : mean_bad_s));
    good = !good;
  }
  return BandwidthTrace(std::move(segs));
}

TelemetryChannel::TelemetryChannel(TelemetryChannelOptions opts,
                                   std::vector<double> initial_bandwidth,
                                   std::size_t num_servers,
                                   std::uint64_t seed)
    : opts_(opts) {
  SCALPEL_REQUIRE(opts_.delay >= 0.0, "telemetry delay must be non-negative");
  SCALPEL_REQUIRE(opts_.drop_prob >= 0.0 && opts_.drop_prob < 1.0,
                  "telemetry drop probability must be in [0, 1)");
  SCALPEL_REQUIRE(opts_.noise_sigma >= 0.0,
                  "telemetry noise sigma must be non-negative");
  SCALPEL_REQUIRE(opts_.quantum >= 0.0,
                  "telemetry quantum must be non-negative");
  SCALPEL_REQUIRE(opts_.flip_prob >= 0.0 && opts_.flip_prob < 1.0,
                  "telemetry flip probability must be in [0, 1)");
  const Rng base(seed);
  const std::size_t num_cells = initial_bandwidth.size();
  for (std::size_t c = 0; c < num_cells; ++c) {
    cell_rng_.push_back(base.substream(c));
    bw_history_.push_back({Sample{0.0, initial_bandwidth[c]}});
    bw_delivered_.push_back(Sample{0.0, initial_bandwidth[c]});
  }
  for (std::size_t s = 0; s < num_servers; ++s) {
    server_rng_.push_back(base.substream(num_cells + s));
    alive_history_.push_back({Sample{0.0, 1.0}});
    alive_delivered_.push_back(Sample{0.0, 1.0});
  }
}

const TelemetryChannel::Sample& TelemetryChannel::delayed(
    const std::deque<Sample>& history, double now, double delay) {
  const double cutoff = now - delay + 1e-12;
  const Sample* best = &history.front();
  for (const Sample& s : history) {
    if (s.time > cutoff) break;
    best = &s;
  }
  return *best;
}

void TelemetryChannel::prune(std::deque<Sample>& history, double now,
                             double delay) {
  // Keep the newest deliverable entry plus everything still in flight.
  const double cutoff = now - delay + 1e-12;
  while (history.size() > 1 && history[1].time <= cutoff) {
    history.pop_front();
  }
}

void TelemetryChannel::sample(double now, std::vector<double>& cell_bandwidth,
                              std::vector<bool>& server_alive,
                              std::vector<bool>& bw_fresh,
                              std::vector<double>& bw_age,
                              std::vector<bool>& alive_fresh) {
  SCALPEL_REQUIRE(cell_bandwidth.size() == cell_rng_.size(),
                  "telemetry sample must cover every cell");
  SCALPEL_REQUIRE(server_alive.size() == server_rng_.size(),
                  "telemetry sample must cover every server");
  bw_fresh.assign(cell_bandwidth.size(), true);
  bw_age.assign(cell_bandwidth.size(), 0.0);
  alive_fresh.assign(server_alive.size(), true);

  for (std::size_t c = 0; c < cell_bandwidth.size(); ++c) {
    auto& history = bw_history_[c];
    history.push_back(Sample{now, cell_bandwidth[c]});
    // Per tick, per signal: exactly one uniform (drop) and one normal
    // (noise) draw, regardless of outcome, so each stream's position is a
    // pure function of how many ticks have happened.
    Rng& rng = cell_rng_[c];
    const bool dropped = rng.uniform() < opts_.drop_prob;
    const double jitter = rng.normal(0.0, 1.0);
    if (!dropped) {
      Sample s = delayed(history, now, opts_.delay);
      if (opts_.noise_sigma > 0.0) {
        s.value *= std::exp(opts_.noise_sigma * jitter);
      }
      if (opts_.quantum > 0.0) {
        s.value = std::max(opts_.quantum,
                           std::round(s.value / opts_.quantum) * opts_.quantum);
      }
      bw_delivered_[c] = s;
    }
    bw_fresh[c] = !dropped;
    bw_age[c] = now - bw_delivered_[c].time;
    cell_bandwidth[c] = bw_delivered_[c].value;
    prune(history, now, opts_.delay);
  }

  for (std::size_t s = 0; s < server_alive.size(); ++s) {
    auto& history = alive_history_[s];
    history.push_back(Sample{now, server_alive[s] ? 1.0 : 0.0});
    Rng& rng = server_rng_[s];
    const bool dropped = rng.uniform() < opts_.drop_prob;
    const bool flipped = rng.uniform() < opts_.flip_prob;
    if (!dropped) {
      Sample v = delayed(history, now, opts_.delay);
      if (flipped) v.value = v.value > 0.5 ? 0.0 : 1.0;
      alive_delivered_[s] = v;
    }
    alive_fresh[s] = !dropped;
    server_alive[s] = alive_delivered_[s].value > 0.5;
    prune(history, now, opts_.delay);
  }
}

}  // namespace scalpel
