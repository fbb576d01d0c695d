#include "obs/span.hpp"

#include "util/assert.hpp"
#include "util/json.hpp"

namespace scalpel {

namespace {

constexpr std::size_t kNumSpanEvents =
    static_cast<std::size_t>(CtrlSpanEvent::kRegrant) + 1;

/// obs sits below src/ctrl, so the message-type names are mirrored here by
/// value (CtrlMsgType: 0 = load report, 1 = slice grant, 2 = heartbeat)
/// instead of including ctrl/message.hpp. The span tests pin the mapping.
const char* ctrl_msg_type_name(std::uint8_t msg) {
  switch (msg) {
    case 0: return "load_report";
    case 1: return "slice_grant";
    case 2: return "heartbeat";
    default: return "unknown";
  }
}

/// One span as a Chrome instant event on the control-plane lane.
void write_chrome_span(JsonWriter& w, const CtrlSpan& sp) {
  w.begin_object();
  w.key("name").value(std::string(ctrl_msg_type_name(sp.msg)) + ":" +
                      ctrl_span_name(sp.event));
  w.key("ph").value("i");
  w.key("s").value("t");  // thread-scoped instant
  w.key("ts").value(sp.time * 1e6);  // shared µs clock
  w.key("pid").value(static_cast<double>(kCtrlChromePid));
  w.key("tid").value(static_cast<double>(sp.corr));
  w.key("args").begin_object();
  w.key("span").value(ctrl_span_name(sp.event));
  w.key("msg").value(ctrl_msg_type_name(sp.msg));
  w.key("corr").value(static_cast<double>(sp.corr));
  w.key("epoch").value(static_cast<double>(sp.epoch));
  w.key("price").value(sp.price);
  w.key("from").value(static_cast<double>(sp.from));
  w.key("to").value(static_cast<double>(sp.to));
  w.end_object();
  w.end_object();
}

/// The merged Chrome trace document, streamed into `w`: task events, then
/// control-plane spans, then both rings' drop counts.
void write_merged_doc(JsonWriter& w, const std::vector<TraceEvent>& tasks,
                      std::uint64_t dropped_tasks, const CtrlTracer& spans) {
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const auto& ev : tasks) write_chrome_event(w, ev);
  for (const auto& sp : spans.snapshot()) write_chrome_span(w, sp);
  w.end_array();
  w.key("droppedEvents").value(static_cast<double>(dropped_tasks));
  w.key("droppedSpans").value(static_cast<double>(spans.dropped()));
  w.end_object();
}

}  // namespace

const char* ctrl_span_name(CtrlSpanEvent event) {
  switch (event) {
    case CtrlSpanEvent::kSent: return "sent";
    case CtrlSpanEvent::kDelayed: return "delayed";
    case CtrlSpanEvent::kDropped: return "dropped";
    case CtrlSpanEvent::kDelivered: return "delivered";
    case CtrlSpanEvent::kDeadLetter: return "dead_letter";
    case CtrlSpanEvent::kAdopted: return "adopted";
    case CtrlSpanEvent::kRejectedStale: return "rejected_stale";
    case CtrlSpanEvent::kRegrant: return "regrant";
  }
  return "unknown";
}

Json merged_trace_to_chrome_json(const TaskTracer& tasks,
                                 const CtrlTracer& spans) {
  JsonWriter w;
  write_merged_doc(w, tasks.snapshot(), tasks.dropped(), spans);
  return Json::parse(w.take());
}

bool write_merged_trace(const std::string& path, const TaskTracer& tasks,
                        const CtrlTracer& spans) {
  return write_json_file(path, [&](JsonWriter& w) {
    write_merged_doc(w, tasks.snapshot(), tasks.dropped(), spans);
  });
}

std::vector<std::size_t> ctrl_span_counts(const std::vector<CtrlSpan>& spans) {
  std::vector<std::size_t> counts(kNumSpanEvents, 0);
  for (const auto& sp : spans) {
    const auto idx = static_cast<std::size_t>(sp.event);
    SCALPEL_REQUIRE(idx < counts.size(), "unknown ctrl span event");
    ++counts[idx];
  }
  return counts;
}

}  // namespace scalpel
