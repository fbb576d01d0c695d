#pragma once

#include <cstdint>
#include <vector>

#include "ctrl/message.hpp"
#include "obs/span.hpp"
#include "util/rng.hpp"

namespace scalpel {

/// Fills a CtrlSpan from a message: corr/epoch/endpoints/type plus the mean
/// payload value as the span's price (a grant's mean phi share, a report's
/// mean demand — the one scalar worth putting on a timeline).
CtrlSpan ctrl_span_of(const CtrlMessage& msg, double time,
                      CtrlSpanEvent event);

/// Impairments on the control-message fabric, mirroring the telemetry
/// channel's contract: all-zero means a perfect fabric (deliver on the next
/// tick, nothing lost, FIFO per link).
struct ControlFabricOptions {
  /// Base propagation delay applied to every message (seconds).
  double delay = 0.0;
  /// Additional uniform [0, jitter) delay per message — jitter larger than
  /// the send cadence reorders messages across sends.
  double jitter = 0.0;
  /// Per-message loss probability.
  double drop_prob = 0.0;

  bool pass_through() const {
    return delay == 0.0 && jitter == 0.0 && drop_prob == 0.0;
  }
};

/// Deterministic lossy/delayed/reordering transport for control messages.
/// Every directed (from, to) link draws from its own Rng substream derived
/// from the construction seed, and every send consumes exactly two draws
/// (drop coin, jitter) whether or not the impairments are enabled — so the
/// in-flight set is a pure function of (options, seed, send sequence) and
/// the engine replays it bit-identically at any shard count.
class ControlFabric {
 public:
  ControlFabric(ControlFabricOptions opts, std::size_t num_endpoints,
                std::uint64_t seed);

  /// Queues `msg` (from/to/type/epoch/payload filled by the caller) at time
  /// `now`. Assigns seq and deliver_at; a dropped message still consumes its
  /// draws and its seq so loss never shifts another link's stream.
  void send(CtrlMessage msg, double now);

  /// Removes and returns every in-flight message with deliver_at <= now,
  /// sorted by (deliver_at, seq). The caller routes them (and drops those
  /// addressed to endpoints that are down — see drop_for_dead()).
  std::vector<CtrlMessage> deliver(double now);

  /// Discards in-flight messages addressed to `endpoint` (called when the
  /// endpoint crashes: its queue dies with it). `now` only stamps the
  /// dead-letter spans.
  void drop_for_dead(int endpoint, double now = 0.0);

  std::uint64_t sent() const { return sent_; }
  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t dropped() const { return dropped_; }
  /// In-flight messages discarded because their recipient crashed.
  std::uint64_t dropped_dead() const { return dropped_dead_; }
  std::size_t in_flight() const { return in_flight_.size(); }
  const ControlFabricOptions& options() const { return opts_; }

  /// Attaches a span recorder (nullptr detaches). Recording is purely
  /// observational — no RNG draws, no behavior change — so a traced fabric
  /// replays bit-identically to an untraced one.
  void set_tracer(CtrlTracer* tracer) { tracer_ = tracer; }

 private:
  CtrlTracer* tracer_ = nullptr;
  ControlFabricOptions opts_;
  std::size_t num_endpoints_;
  std::vector<Rng> link_rng_;  // one substream per directed (from, to) link
  std::vector<CtrlMessage> in_flight_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t sent_ = 0;
  std::uint64_t delivered_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t dropped_dead_ = 0;
};

}  // namespace scalpel
