#include "obs/span.hpp"

#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

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

void CtrlTracer::reset(std::size_t capacity) {
  capacity_ = capacity;
  ring_.assign(capacity, CtrlSpan{});
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

std::vector<CtrlSpan> CtrlTracer::snapshot() const {
  std::vector<CtrlSpan> out;
  out.reserve(size_);
  const std::size_t start = size_ < capacity_ ? 0 : head_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

Json ctrl_spans_to_chrome_events(const std::vector<CtrlSpan>& spans) {
  Json arr = Json::array();
  for (const auto& sp : spans) {
    Json e = Json::object();
    e.set("name", Json::string(std::string(ctrl_msg_type_name(sp.msg)) + ":" +
                               ctrl_span_name(sp.event)));
    e.set("ph", Json::string("i"));
    e.set("s", Json::string("t"));  // thread-scoped instant
    e.set("ts", Json::number(sp.time * 1e6));  // shared µs clock
    e.set("pid", Json::number(static_cast<double>(kCtrlChromePid)));
    e.set("tid", Json::number(static_cast<double>(sp.corr)));
    Json args = Json::object();
    args.set("span", Json::string(ctrl_span_name(sp.event)));
    args.set("msg", Json::string(ctrl_msg_type_name(sp.msg)));
    args.set("corr", Json::number(static_cast<double>(sp.corr)));
    args.set("epoch", Json::number(static_cast<double>(sp.epoch)));
    args.set("price", Json::number(sp.price));
    args.set("from", Json::number(static_cast<double>(sp.from)));
    args.set("to", Json::number(static_cast<double>(sp.to)));
    e.set("args", std::move(args));
    arr.push_back(std::move(e));
  }
  return arr;
}

Json merged_trace_to_chrome_json(const TaskTracer& tasks,
                                 const CtrlTracer& spans) {
  return merged_trace_to_chrome_json(tasks.snapshot(), tasks.dropped(), spans);
}

Json merged_trace_to_chrome_json(const std::vector<TraceEvent>& tasks,
                                 std::uint64_t dropped_tasks,
                                 const CtrlTracer& spans) {
  const Json task_doc = trace_to_chrome_json(tasks, dropped_tasks);
  const Json& task_events = task_doc.at("traceEvents");
  Json doc = Json::object();
  doc.set("displayTimeUnit", Json::string("ms"));
  Json& arr = doc.set("traceEvents", Json::array());
  for (std::size_t i = 0; i < task_events.size(); ++i) {
    arr.push_back(task_events.at(i));
  }
  const Json ctrl = ctrl_spans_to_chrome_events(spans.snapshot());
  for (std::size_t i = 0; i < ctrl.size(); ++i) {
    arr.push_back(ctrl.at(i));
  }
  doc.set("droppedEvents", Json::number(static_cast<double>(dropped_tasks)));
  doc.set("droppedSpans",
          Json::number(static_cast<double>(spans.dropped())));
  return doc;
}

Table ctrl_spans_to_table(const std::vector<CtrlSpan>& spans) {
  Table t({"time_s", "corr", "epoch", "price", "from", "to", "msg", "span"});
  for (const auto& sp : spans) {
    t.add_row({Table::num(sp.time, 6),
               Table::num(static_cast<std::int64_t>(sp.corr)),
               Table::num(static_cast<std::int64_t>(sp.epoch)),
               Table::num(sp.price, 6),
               Table::num(static_cast<std::int64_t>(sp.from)),
               Table::num(static_cast<std::int64_t>(sp.to)),
               ctrl_msg_type_name(sp.msg), ctrl_span_name(sp.event)});
  }
  return t;
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
