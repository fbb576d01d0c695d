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

void write_chrome_event(JsonWriter& w, const TraceEvent& ev) {
  // Compute and upload phases render as B/E duration pairs named after the
  // stage; everything else is a thread-scoped instant.
  const char* span = nullptr;
  const char* ph = "i";
  const char* exec =
      ev.arg == static_cast<std::uint8_t>(TraceStage::kServer) ? "server-exec"
                                                               : "device-exec";
  switch (ev.type) {
    case TraceEventType::kExecStart: span = exec; ph = "B"; break;
    case TraceEventType::kExecEnd: span = exec; ph = "E"; break;
    case TraceEventType::kUploadStart: span = "upload"; ph = "B"; break;
    case TraceEventType::kUploadEnd: span = "upload"; ph = "E"; break;
    default: break;
  }
  w.begin_object();
  w.key("name").value(span != nullptr ? span : trace_event_name(ev.type));
  w.key("ph").value(ph);
  if (span == nullptr) w.key("s").value("t");
  w.key("ts").value(ev.time * 1e6);  // chrome traces use µs
  w.key("pid").value(static_cast<double>(ev.device));
  w.key("tid").value(static_cast<double>(ev.task));
  w.key("args").begin_object();
  w.key("event").value(trace_event_name(ev.type));
  if (ev.server >= 0) w.key("server").value(static_cast<double>(ev.server));
  if (ev.type == TraceEventType::kRetry) {
    w.key("attempt").value(static_cast<double>(ev.arg));
  } else if (ev.type == TraceEventType::kEnqueue ||
             ev.type == TraceEventType::kDispatch ||
             ev.type == TraceEventType::kExecStart ||
             ev.type == TraceEventType::kExecEnd) {
    w.key("stage").value(trace_stage_name(static_cast<TraceStage>(ev.arg)));
  }
  w.end_object();
  w.end_object();
}

void write_task_doc(JsonWriter& w, const std::vector<TraceEvent>& events,
                    std::uint64_t dropped) {
  w.begin_object();
  w.key("displayTimeUnit").value("ms");
  w.key("traceEvents").begin_array();
  for (const auto& ev : events) write_chrome_event(w, ev);
  w.end_array();
  w.key("droppedEvents").value(static_cast<double>(dropped));
  w.end_object();
}

bool write_trace(const TaskTracer& tracer, const std::string& path) {
  if (!path.ends_with(".csv")) {
    return write_json_file(path, [&](JsonWriter& w) {
      write_task_doc(w, tracer.snapshot(), tracer.dropped());
    });
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    log_warn("could not open trace output file: " + path);
    return false;
  }
  // One row per event; no cell ever needs CSV quoting.
  out << "time_s,task,device,server,event,arg\n";
  for (const auto& ev : tracer.snapshot()) {
    out << Table::num(ev.time, 6) << ',' << static_cast<std::int64_t>(ev.task)
        << ',' << ev.device << ',' << ev.server << ','
        << trace_event_name(ev.type) << ',' << static_cast<int>(ev.arg)
        << '\n';
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
