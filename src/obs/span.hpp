#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace scalpel {
class Json;

/// Lifecycle stations a control-plane message (or the grant it carries)
/// passes through. One send records kSent exactly once and then exactly one
/// fabric outcome — kDropped, kDelivered, or a fabric-side kDeadLetter (the
/// queue wiped when its endpoint died) — so a complete span stream
/// reconciles with the fabric's counters:
///   #kSent == #kDropped + #kDelivered + #fabric kDeadLetter + in_flight.
/// A routing-side kDeadLetter (recipient down at delivery time) annotates a
/// message that already carries a kDelivered span; the two populations are
/// told apart by the ctrl.msg.dropped_dead vs ctrl.dead_letters counters.
/// kDelayed, kAdopted, kRejectedStale, and kRegrant annotate that skeleton:
/// jittered transit, cell-side grant adoption, split-brain rejections, and
/// coordinator anti-entropy re-grants (which reuse the original grant's
/// correlation id, so mint -> drop -> re-grant -> adopt reads as one causal
/// chain on a single id).
enum class CtrlSpanEvent : std::uint8_t {
  kSent = 0,       // handed to the fabric (seq assigned)
  kDelayed,        // transit picked up a nonzero jitter draw
  kDropped,        // the fabric's drop coin ate it
  kDelivered,      // surfaced by ControlFabric::deliver
  kDeadLetter,     // recipient endpoint was down (in fabric or at routing)
  kAdopted,        // cell adopted the carried grant (epoch outranked)
  kRejectedStale,  // cell bounced the grant off the epoch guard
  kRegrant,        // coordinator anti-entropy re-grant (same corr, same epoch)
};

/// Short stable names ("sent", "adopted", ...) used by every exporter.
const char* ctrl_span_name(CtrlSpanEvent event);

/// One fixed-size control-plane span record. POD on purpose: recording is a
/// struct copy into a preallocated ring, never an allocation, and never an
/// RNG draw — span tracing is purely observational and cannot shift the
/// fabric's deterministic substreams.
struct CtrlSpan {
  double time = 0.0;        // sim seconds
  std::uint64_t corr = 0;   // correlation id minted at the originating send
  std::uint64_t epoch = 0;  // epoch carried by the message
  double price = 0.0;       // mean payload value (slice / demand share)
  std::int32_t from = -1;   // fabric endpoint ids (0 = coordinator)
  std::int32_t to = -1;
  CtrlSpanEvent event = CtrlSpanEvent::kSent;
  std::uint8_t msg = 0;  // CtrlMsgType of the carrying message

  bool operator==(const CtrlSpan& other) const {
    return time == other.time && corr == other.corr &&
           epoch == other.epoch && price == other.price &&
           from == other.from && to == other.to && event == other.event &&
           msg == other.msg;
  }
};

/// Bounded span recorder: the same ring as TaskTracer, over CtrlSpan.
using CtrlTracer = EventRing<CtrlSpan>;

/// The pid control-plane spans render under in Chrome trace JSON — a lane of
/// its own, far above any device id, so one timeline shows task lifecycles
/// per device next to the control-plane message flow.
constexpr std::int64_t kCtrlChromePid = 1 << 20;

/// One merged Chrome trace document: task lifecycle events and control-plane
/// spans on the shared sim-time clock (µs). Spans are instant events on
/// pid=kCtrlChromePid / tid=corr, each carrying corr, epoch, price, from,
/// to, msg type, and span event in args. droppedEvents / droppedSpans carry
/// the two rings' overwrite counts so truncation is detectable. This DOM
/// form parses the text write_merged_trace streams.
Json merged_trace_to_chrome_json(const TaskTracer& tasks,
                                 const CtrlTracer& spans);
/// Streams the merged document, pretty-printed, straight to `path` without
/// building it; returns false (and logs) on I/O failure.
bool write_merged_trace(const std::string& path, const TaskTracer& tasks,
                        const CtrlTracer& spans);

/// Per-event counts of a span stream (index by CtrlSpanEvent).
std::vector<std::size_t> ctrl_span_counts(const std::vector<CtrlSpan>& spans);

}  // namespace scalpel
