#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "util/rng.hpp"

namespace scalpel {

/// Piecewise-constant time series of a cell's uplink bandwidth, used by the
/// online-adaptation experiment (trace-driven bandwidth dynamics standing in
/// for real wireless variability).
class BandwidthTrace {
 public:
  struct Segment {
    double start = 0.0;      // seconds
    double bandwidth = 0.0;  // bytes/s
  };

  explicit BandwidthTrace(std::vector<Segment> segments);

  /// Bandwidth active at time t (segments cover [0, inf); the last segment
  /// extends forever). t must be >= the first segment start.
  double at(double t) const;

  const std::vector<Segment>& segments() const { return segments_; }
  double mean(double horizon) const;

  /// Flat trace.
  static BandwidthTrace constant(double bandwidth);

  /// Bounded multiplicative random walk around `base`: every `step` seconds
  /// the bandwidth multiplies by exp(N(0, sigma)), clamped to
  /// [base/range, base*range].
  static BandwidthTrace random_walk(double base, double step, double sigma,
                                    double range, double horizon, Rng& rng);

  /// Two-state Markov-modulated trace (good/bad bandwidth), exponential
  /// holding times — models interference bursts / contention episodes.
  static BandwidthTrace gilbert(double good_bw, double bad_bw,
                                double mean_good_s, double mean_bad_s,
                                double horizon, Rng& rng);

 private:
  std::vector<Segment> segments_;
};

/// What a fault event hits.
enum class FaultTarget { Server, Link };

/// One liveness transition: a server crashing/recovering or a cell uplink
/// dropping/restoring. Everything starts up at t = 0; redundant transitions
/// (downing an already-down target) are no-ops, so generated schedules can
/// be merged freely.
struct FaultEvent {
  double time = 0.0;
  FaultTarget target = FaultTarget::Server;
  std::int32_t id = -1;  // ServerId or CellId depending on target
  bool up = false;       // false = crash/outage, true = recover/restore
};

/// A deterministic script of hard failures driving the simulator's fault
/// injection (BandwidthTrace models smooth drift; this models resources
/// disappearing outright). Events are kept sorted by time, ties in insertion
/// order, so replaying a schedule is deterministic.
class FaultSchedule {
 public:
  FaultSchedule() = default;
  explicit FaultSchedule(std::vector<FaultEvent> events);

  bool empty() const { return events_.empty(); }
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Liveness at time t (events at exactly t already applied).
  bool server_up(std::int32_t server, double t) const;
  bool link_up(std::int32_t cell, double t) const;

  /// Fraction of [0, horizon] the server is up.
  double server_availability(std::int32_t server, double horizon) const;

  /// Union of two scripts (events re-sorted by time).
  FaultSchedule merged(const FaultSchedule& other) const;

  /// One crash/recover cycle. up_at = +inf means the server never recovers.
  static FaultSchedule server_crash(std::int32_t server, double down_at,
                                    double up_at);
  static FaultSchedule link_outage(std::int32_t cell, double down_at,
                                   double up_at);

  /// Independent alternating up/down renewal process per server: exponential
  /// time-to-failure (mean `mtbf`) and repair time (mean `mttr`). Server s is
  /// driven by rng.substream(s), so the script depends only on the rng's
  /// construction seed, never on draw history.
  static FaultSchedule exponential_servers(std::size_t num_servers,
                                           double mtbf, double mttr,
                                           double horizon, const Rng& rng);

 private:
  double availability(FaultTarget target, std::int32_t id,
                      double horizon) const;
  bool up_at(FaultTarget target, std::int32_t id, double t) const;

  std::vector<FaultEvent> events_;
};

/// Impairments the telemetry channel applies between the ground truth and
/// what the controller observes. All-zero (the default) means a perfect
/// channel; `Simulator` skips channel construction entirely in that case so
/// existing runs stay bit-identical.
struct TelemetryChannelOptions {
  /// Observation latency: a sample taken at t is deliverable at t + delay.
  double delay = 0.0;  // seconds
  /// Per signal per tick probability that the report is lost; a lost report
  /// repeats the last delivered value (marked not fresh, with growing age).
  double drop_prob = 0.0;
  /// Multiplicative lognormal measurement noise on bandwidth readings:
  /// observed = delivered * exp(N(0, sigma)).
  double noise_sigma = 0.0;
  /// Bandwidth readings snap to this grid (bytes/s); 0 disables. Readings
  /// below quantum/2 clamp to one quantum, never to zero.
  double quantum = 0.0;  // bytes/s
  /// Per server per tick probability a liveness reading is inverted (the
  /// "blinking server" input the sanitizer's flap filter exists for).
  double flip_prob = 0.0;

  /// True when every impairment is disabled (identity channel).
  bool pass_through() const {
    return delay == 0.0 && drop_prob == 0.0 && noise_sigma == 0.0 &&
           quantum == 0.0 && flip_prob == 0.0;
  }
};

/// Models the measurement path between the cluster and the controller:
/// delays, drops, quantizes, and perturbs per-cell bandwidth and per-server
/// liveness readings. Every signal draws from its own Rng substream derived
/// from the construction seed (cells first, then servers), and every
/// sample() consumes a fixed number of draws per signal, so the observed
/// stream is a pure function of (options, seed, tick times) — independent of
/// thread count or of what any other signal did. Feed it the ground truth in
/// simulation-time order; it mutates the vectors toward what a real
/// collector would have seen.
class TelemetryChannel {
 public:
  TelemetryChannel(TelemetryChannelOptions opts,
                   std::vector<double> initial_bandwidth,
                   std::size_t num_servers, std::uint64_t seed);

  /// Observes the ground truth at `now` (must not decrease across calls).
  /// `cell_bandwidth` / `server_alive` are replaced in place by the channel's
  /// readings. `bw_fresh[c]` is false when cell c's report was dropped this
  /// tick; `bw_age[c]` is now minus the timestamp of the sample actually
  /// delivered (delay + drops both age a reading). `alive_fresh[s]` is false
  /// when server s's report was dropped (a flipped reading is "fresh" —
  /// detecting the lie is the sanitizer's job, not the channel's).
  void sample(double now, std::vector<double>& cell_bandwidth,
              std::vector<bool>& server_alive, std::vector<bool>& bw_fresh,
              std::vector<double>& bw_age, std::vector<bool>& alive_fresh);

  bool pass_through() const { return opts_.pass_through(); }
  const TelemetryChannelOptions& options() const { return opts_; }

 private:
  struct Sample {
    double time = 0.0;
    double value = 0.0;
  };
  /// Newest history entry with time <= now - delay (history is seeded at
  /// construction, so one always exists).
  static const Sample& delayed(const std::deque<Sample>& history, double now,
                               double delay);
  static void prune(std::deque<Sample>& history, double now, double delay);

  TelemetryChannelOptions opts_;
  std::vector<Rng> cell_rng_;    // one substream per cell
  std::vector<Rng> server_rng_;  // one substream per server
  std::vector<std::deque<Sample>> bw_history_;     // per cell, ground truth
  std::vector<std::deque<Sample>> alive_history_;  // per server, 0/1 truth
  std::vector<Sample> bw_delivered_;     // last report that got through
  std::vector<Sample> alive_delivered_;  // value is 0.0/1.0
};

}  // namespace scalpel
