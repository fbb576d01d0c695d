#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>
#include <tuple>

#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace scalpel {

namespace {

constexpr std::size_t kNumEventTypes =
    static_cast<std::size_t>(TraceEventType::kComplete) + 1;

/// Duration-pair begin types and the track name their B/E span renders as.
bool span_begin(const TraceEvent& ev, std::string* name) {
  switch (ev.type) {
    case TraceEventType::kExecStart:
      *name = ev.arg == static_cast<std::uint8_t>(TraceStage::kServer)
                  ? "server-exec"
                  : "device-exec";
      return true;
    case TraceEventType::kUploadStart:
      *name = "upload";
      return true;
    default:
      return false;
  }
}

bool span_end(const TraceEvent& ev, std::string* name) {
  switch (ev.type) {
    case TraceEventType::kExecEnd:
      *name = ev.arg == static_cast<std::uint8_t>(TraceStage::kServer)
                  ? "server-exec"
                  : "device-exec";
      return true;
    case TraceEventType::kUploadEnd:
      *name = "upload";
      return true;
    default:
      return false;
  }
}

}  // namespace

const char* trace_event_name(TraceEventType type) {
  switch (type) {
    case TraceEventType::kArrive: return "arrive";
    case TraceEventType::kEnqueue: return "enqueue";
    case TraceEventType::kDispatch: return "dispatch";
    case TraceEventType::kExecStart: return "exec_start";
    case TraceEventType::kExecEnd: return "exec_end";
    case TraceEventType::kUploadStart: return "upload_start";
    case TraceEventType::kUploadEnd: return "upload_end";
    case TraceEventType::kRetry: return "retry";
    case TraceEventType::kResteer: return "resteer";
    case TraceEventType::kShed: return "shed";
    case TraceEventType::kExpire: return "expire";
    case TraceEventType::kFail: return "fail";
    case TraceEventType::kComplete: return "complete";
  }
  return "unknown";
}

const char* trace_stage_name(TraceStage stage) {
  switch (stage) {
    case TraceStage::kDevice: return "device";
    case TraceStage::kUpload: return "upload";
    case TraceStage::kServer: return "server";
  }
  return "unknown";
}

void TaskTracer::reset(std::size_t capacity) {
  capacity_ = capacity;
  ring_.assign(capacity, TraceEvent{});
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

std::vector<TraceEvent> TaskTracer::snapshot() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest event first: once wrapped, it sits at head_ (the next overwrite).
  const std::size_t start = size_ < capacity_ ? 0 : head_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % capacity_]);
  }
  return out;
}

Json trace_to_chrome_json(const std::vector<TraceEvent>& events,
                          std::uint64_t dropped) {
  Json doc = Json::object();
  doc.set("displayTimeUnit", Json::string("ms"));
  Json& arr = doc.set("traceEvents", Json::array());
  for (const auto& ev : events) {
    Json e = Json::object();
    std::string span;
    if (span_begin(ev, &span)) {
      e.set("name", Json::string(span));
      e.set("ph", Json::string("B"));
    } else if (span_end(ev, &span)) {
      e.set("name", Json::string(span));
      e.set("ph", Json::string("E"));
    } else {
      e.set("name", Json::string(trace_event_name(ev.type)));
      e.set("ph", Json::string("i"));
      e.set("s", Json::string("t"));  // thread-scoped instant
    }
    e.set("ts", Json::number(ev.time * 1e6));  // chrome traces use µs
    e.set("pid", Json::number(static_cast<double>(ev.device)));
    e.set("tid", Json::number(static_cast<double>(ev.task)));
    Json args = Json::object();
    args.set("event", Json::string(trace_event_name(ev.type)));
    if (ev.server >= 0) {
      args.set("server", Json::number(static_cast<double>(ev.server)));
    }
    if (ev.type == TraceEventType::kRetry) {
      args.set("attempt", Json::number(static_cast<double>(ev.arg)));
    } else if (ev.type == TraceEventType::kEnqueue ||
               ev.type == TraceEventType::kDispatch ||
               ev.type == TraceEventType::kExecStart ||
               ev.type == TraceEventType::kExecEnd) {
      args.set("stage", Json::string(trace_stage_name(
                            static_cast<TraceStage>(ev.arg))));
    }
    e.set("args", std::move(args));
    arr.push_back(std::move(e));
  }
  doc.set("droppedEvents", Json::number(static_cast<double>(dropped)));
  return doc;
}

Json trace_to_chrome_json(const TaskTracer& tracer) {
  return trace_to_chrome_json(tracer.snapshot(), tracer.dropped());
}

Table trace_to_table(const std::vector<TraceEvent>& events) {
  Table t({"time_s", "task", "device", "server", "event", "arg"});
  for (const auto& ev : events) {
    t.add_row({Table::num(ev.time, 6),
               Table::num(static_cast<std::int64_t>(ev.task)),
               Table::num(static_cast<std::int64_t>(ev.device)),
               Table::num(static_cast<std::int64_t>(ev.server)),
               trace_event_name(ev.type),
               Table::num(static_cast<std::int64_t>(ev.arg))});
  }
  return t;
}

bool write_trace(const TaskTracer& tracer, const std::string& path) {
  const bool csv = path.size() >= 4 &&
                   path.compare(path.size() - 4, 4, ".csv") == 0;
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    log_warn("could not open trace output file: " + path);
    return false;
  }
  if (csv) {
    out << trace_to_table(tracer.snapshot()).to_csv();
  } else {
    out << trace_to_chrome_json(tracer).dump_pretty() << "\n";
  }
  return static_cast<bool>(out);
}

std::vector<std::size_t> trace_event_counts(
    const std::vector<TraceEvent>& events) {
  std::vector<std::size_t> counts(kNumEventTypes, 0);
  for (const auto& ev : events) {
    const auto idx = static_cast<std::size_t>(ev.type);
    SCALPEL_REQUIRE(idx < counts.size(), "unknown trace event type");
    ++counts[idx];
  }
  return counts;
}

std::vector<TraceEvent> reconcile_trace(std::vector<TraceEvent> events) {
  std::stable_sort(events.begin(), events.end(),
                   [](const TraceEvent& x, const TraceEvent& y) {
                     return std::tie(x.time, x.task, x.type, x.arg, x.device,
                                     x.server) < std::tie(y.time, y.task,
                                                          y.type, y.arg,
                                                          y.device, y.server);
                   });
  return events;
}

}  // namespace scalpel
