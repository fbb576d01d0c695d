// Golden bytes of every exporter. Each export below is produced from a fixed
// input and must reproduce its frozen 64-bit FNV-1a hash of the exact bytes:
//   - write_trace, Chrome JSON and ".csv";
//   - the write_task_doc text parsed back, .dump() and .dump_pretty();
//   - the span events of the merged document (no task events), .dump() and
//     .dump_pretty();
//   - merged_trace_to_chrome_json(...).dump() and .dump_pretty(), and the
//     file write_merged_trace streams;
//   - TimeSeriesRecorder::write, write_sim_metrics, and the metrics registry
//     and decision audit log to_json().dump_pretty().
// The inputs are a traced OnlineController run shaped like the campus-online
// pipeline (server crash, bandwidth dip, rate burst, recorder, SLO, audit),
// a lossy-fabric control-plane run with span tracing, hand-written rings
// wrapped past their capacity (every event type, retries and resteers), and
// empty tracers. A hash mismatch means an exported byte changed; the failure
// prints the new hash.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/joint.hpp"
#include "core/objective.hpp"
#include "core/online.hpp"
#include "ctrl/plane.hpp"
#include "edge/builders.hpp"
#include "edge/dynamics.hpp"
#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "oracles/oracles.hpp"
#include "sim/metrics_export.hpp"
#include "sim/simulator.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace scalpel {
namespace {

std::string hex(std::uint64_t v) {
  std::ostringstream os;
  os << "0x" << std::hex << std::setw(16) << std::setfill('0') << v << "ull";
  return os.str();
}

void expect_hash(const char* what, const std::string& bytes,
                 std::uint64_t frozen) {
  const std::uint64_t h = fnv1a(bytes);
  EXPECT_EQ(h, frozen) << what << ": now " << hex(h) << " (" << bytes.size()
                       << " bytes)";
}

/// A per-process scratch path, so concurrent test trees never collide.
std::string scratch_path(const std::string& name) {
  return ::testing::TempDir() + "export_golden_" +
         std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// The bytes a file-writing exporter produces: `write(path)` must succeed.
template <class Write>
std::string file_bytes(const std::string& name, Write write) {
  const std::string path = scratch_path(name);
  EXPECT_TRUE(write(path)) << "export to " << path << " failed";
  std::string bytes = read_file(path);
  std::remove(path.c_str());
  return bytes;
}

std::string trace_file(const TaskTracer& tracer, const std::string& name) {
  return file_bytes(name, [&](const std::string& p) {
    return write_trace(tracer, p);
  });
}

/// The task trace document: write_task_doc's text, parsed.
Json task_doc(const TaskTracer& tracer) {
  JsonWriter w;
  write_task_doc(w, tracer.snapshot(), tracer.dropped());
  return Json::parse(w.take());
}

/// The Chrome events of control-plane spans: the merged document's event
/// array when it holds no task events.
Json span_events(const CtrlTracer& spans) {
  return merged_trace_to_chrome_json(TaskTracer{}, spans).at("traceEvents");
}

/// write_merged_trace streams the pretty merged document (pinned by its
/// dump_pretty hash) plus a newline.
void expect_merged_file(const TaskTracer& tasks, const CtrlTracer& spans,
                        const Json& merged) {
  EXPECT_EQ(file_bytes("merged.trace.json",
                       [&](const std::string& p) {
                         return write_merged_trace(p, tasks, spans);
                       }),
            merged.dump_pretty() + "\n");
}

JointOptions fast_opts() {
  JointOptions o;
  o.max_iterations = 2;
  o.dp_coverage_bins = 40;
  o.theta_grid = {0.0, 0.3, 0.6};
  return o;
}

std::unique_ptr<ProblemInstance> campus(std::uint64_t seed,
                                        std::size_t devices,
                                        std::size_t servers, double rate,
                                        std::size_t devices_per_cell) {
  clusters::CampusOptions c;
  c.seed = seed;
  c.num_devices = devices;
  c.num_servers = servers;
  c.mean_arrival_rate = rate;
  c.devices_per_cell = devices_per_cell;
  return std::make_unique<ProblemInstance>(clusters::campus(c));
}

std::size_t count_type(const TaskTracer& tracer, TraceEventType type) {
  return trace_event_counts(tracer.snapshot())[static_cast<std::size_t>(type)];
}

/// The server that hosts the most offloading devices under `d`.
ServerId busiest_server(const Decision& d) {
  std::vector<std::size_t> hosted;
  for (const auto& dd : d.per_device) {
    if (dd.plan.device_only) continue;
    const auto s = static_cast<std::size_t>(dd.server);
    if (hosted.size() <= s) hosted.resize(s + 1, 0);
    ++hosted[s];
  }
  SCALPEL_REQUIRE(!hosted.empty(), "the plan offloads nothing");
  return static_cast<ServerId>(std::max_element(hosted.begin(), hosted.end()) -
                               hosted.begin());
}

// ---------------------------------------------------------------------------
// A hardened OnlineController over a campus with one server crash, one
// cell's bandwidth dip and a 1.8x burst, with the recorder, an SLO and the
// audit log attached: campus-online in miniature.

TEST(ExportGolden, OnlineControllerRun) {
  const auto instance = campus(5, 8, 3, 3.0, 4);
  const ClusterTopology& topo = instance->topology();
  OnlineController::Options copts;
  copts.hysteresis = 0.25;
  copts.joint = fast_opts();
  OnlineController ctl(topo, copts);
  const Decision initial = ctl.decision();

  TimeSeriesRecorder recorder(std::size_t{1} << 12);
  SloMonitor slo(&recorder, &ctl.audit_log());
  ctl.register_sources(recorder);
  SloSpec spec;
  spec.name = "deadline";
  spec.good = "sim.deadline_met";
  spec.total = "sim.deadline_total";
  spec.objective = 0.9;
  spec.windows = {{4.0, 1.0}, {12.0, 0.5}};
  slo.add(spec);

  Simulator::Options o;
  o.horizon = 24.0;
  o.warmup = 4.0;
  o.seed = 11;
  o.control_interval = 1.0;
  o.overload.policy = OverloadPolicy::ShedExpired;
  o.overload.device_queue_limit = 32;
  o.overload.upload_queue_limit = 8;
  o.overload.server_queue_limit = 8;
  o.rate_bursts.push_back(RateBurst{12.0, 14.4, 1.8});
  o.faults.policy = FaultPolicy::RetryOffload;
  o.faults.max_retries = 20;
  o.faults.retry_backoff = 0.25;
  o.faults.retry_timeout = 15.0;
  o.faults.schedule =
      FaultSchedule::server_crash(busiest_server(initial), 5.37, 10.0);
  o.trace_capacity = std::size_t{1} << 16;
  o.obs_interval = 0.5;
  o.recorder = &recorder;
  o.slo = &slo;
  Simulator sim(*instance, initial, o);
  for (const auto& c : topo.cells()) {
    const double bw = c.bandwidth;
    sim.set_cell_trace(c.id, c.id == 0 ? BandwidthTrace({{0.0, bw},
                                                          {16.0, 0.5 * bw},
                                                          {19.0, bw}})
                                       : BandwidthTrace::constant(bw));
  }
  sim.set_controller(ctl.callback());
  const SimMetrics metrics = sim.run();

  const TaskTracer& trace = sim.trace();
  ASSERT_EQ(trace.dropped(), 0u);
  ASSERT_GT(count_type(trace, TraceEventType::kRetry), 0u);
  ASSERT_GT(ctl.audit_log().size(), 0u);

  expect_hash("write_trace json", trace_file(trace, "online.trace.json"),
              0x0c62a327c8993b78ull);
  expect_hash("write_trace csv", trace_file(trace, "online.trace.csv"),
              0x0b428ca488b23eb3ull);
  const Json doc = task_doc(trace);
  expect_hash("trace dump", doc.dump(), 0xb876f1d59c6c3aeeull);
  expect_hash("trace dump_pretty", doc.dump_pretty(), 0xcdaec48cbe8c6aa2ull);
  expect_hash("series write",
              file_bytes("online.series.json",
                         [&](const std::string& p) {
                           return recorder.write(p);
                         }),
              0xa887fc975b3147b3ull);
  expect_hash("sim metrics",
              file_bytes("online.metrics.json",
                         [&](const std::string& p) {
                           return write_sim_metrics(metrics, p);
                         }),
              0x537187c723b47e3bull);
  expect_hash("registry", sim.registry().to_json().dump_pretty(),
              0x48b2980056b25a0bull);
  expect_hash("audit", ctl.audit_log().to_json().dump_pretty(),
              0x3733ec7bcd93d0feull);
  // DecisionAuditLog::write frames the pinned pretty document plus a
  // newline, or the table's CSV.
  const auto audit_write = [&](const std::string& p) {
    return ctl.audit_log().write(p);
  };
  EXPECT_EQ(file_bytes("online.audit.json", audit_write),
            ctl.audit_log().to_json().dump_pretty() + "\n");
  EXPECT_EQ(file_bytes("online.audit.csv", audit_write),
            ctl.audit_log().to_table().to_csv());
}

// ---------------------------------------------------------------------------
// The distributed control plane on a lossy fabric with span tracing, over a
// device-only plan whose server crash resteers tasks to their devices.

Decision stub_cell_solver(const ProblemInstance& sub, const JointOptions&) {
  Decision plan;
  plan.scheme = "stub";
  const auto& topo = sub.topology();
  const auto n = static_cast<double>(topo.devices().size());
  plan.per_device.resize(topo.devices().size());
  for (auto& dd : plan.per_device) {
    dd.plan.partition_after = 0;
    dd.server = 0;
    dd.compute_share = 0.9 / n;
    dd.bandwidth = 0.9 * topo.cell(0).bandwidth / n;
  }
  return plan;
}

TEST(ExportGolden, LossyControlPlaneRun) {
  const auto instance = campus(9, 8, 3, 2.5, 2);
  Decision local;
  local.scheme = "test_local";
  local.per_device.resize(instance->topology().devices().size());
  for (auto& dd : local.per_device) dd.plan.device_only = true;
  evaluate_decision(*instance, local);

  DistributedPlaneOptions p;
  p.seed = 9;
  p.fabric.delay = 0.3;
  p.fabric.jitter = 1.5;
  p.fabric.drop_prob = 0.15;
  p.cell.solver = stub_cell_solver;
  p.controller_faults = FaultSchedule::server_crash(0, 4.0, 9.0);
  p.span_capacity = std::size_t{1} << 14;
  DistributedControlPlane plane(instance->topology(), p);

  Simulator::Options o;
  o.horizon = 16.0;
  o.warmup = 1.0;
  o.seed = 9;
  o.control_interval = 1.0;
  o.faults.schedule = FaultSchedule::server_crash(0, 5.0, 8.0)
                          .merged(FaultSchedule::server_crash(1, 7.0, 12.0))
                          .merged(FaultSchedule::server_crash(2, 9.0, 11.0));
  o.faults.policy = FaultPolicy::RetryOnDevice;
  o.trace_capacity = std::size_t{1} << 16;
  Simulator sim(*instance, local, o);
  sim.set_controller(plane.callback());
  const SimMetrics metrics = sim.run();

  const TaskTracer& trace = sim.trace();
  const CtrlTracer& spans = plane.ctrl_trace();
  ASSERT_EQ(trace.dropped(), 0u);
  ASSERT_GT(spans.size(), 0u);
  ASSERT_GT(count_type(trace, TraceEventType::kResteer), 0u);

  const Json events = span_events(spans);
  expect_hash("span events dump", events.dump(), 0x1fd44305320fc124ull);
  expect_hash("span events dump_pretty", events.dump_pretty(),
              0x3be7f0c4d1fa4fe6ull);
  const Json merged = merged_trace_to_chrome_json(trace, spans);
  expect_hash("merged dump", merged.dump(), 0xbdd0e58c7396559cull);
  expect_hash("merged dump_pretty", merged.dump_pretty(),
              0x0c8fda9b4c16da0aull);
  expect_merged_file(trace, spans, merged);
  expect_hash("write_trace json", trace_file(trace, "plane.trace.json"),
              0xa98bc6203b26cc3aull);
  expect_hash("sim metrics",
              file_bytes("plane.metrics.json",
                         [&](const std::string& path) {
                           return write_sim_metrics(metrics, path);
                         }),
              0xf418cc7217e1e5b2ull);
  MetricsRegistry registry;
  plane.publish_metrics(registry);
  expect_hash("plane registry", registry.to_json().dump_pretty(),
              0x9809383a8681b102ull);
  expect_hash("plane audit", plane.audit_log().to_json().dump_pretty(),
              0xb5fe6dc6357c5706ull);
}

// ---------------------------------------------------------------------------
// Hand-written rings wrapped past their capacity: every event type and span
// event, negative and large ids, fractional and large times, retry attempts.

TaskTracer wrapped_task_ring() {
  TaskTracer tracer(40);
  const std::uint8_t stage_args[] = {0, 1, 2};
  for (std::uint64_t i = 0; i < 100; ++i) {
    const auto type = static_cast<TraceEventType>(i % 13);
    const double time = 0.1 * static_cast<double>(i) +
                        1e-7 * static_cast<double>(i * i) +
                        (i % 17 == 0 ? 12345.678 : 0.0);
    const auto device = static_cast<std::int32_t>(i % 7) - 1;
    const std::int32_t server =
        i % 3 == 0 ? -1 : static_cast<std::int32_t>(i % 5);
    const std::uint8_t arg = type == TraceEventType::kRetry
                                 ? static_cast<std::uint8_t>(i % 4 + 1)
                                 : stage_args[i % 3];
    tracer.record(time, (std::uint64_t{1} << 40) + i, device, server, type,
                  arg);
  }
  return tracer;
}

CtrlTracer wrapped_span_ring() {
  CtrlTracer tracer(10);
  for (std::uint64_t i = 0; i < 25; ++i) {
    CtrlSpan sp;
    sp.time = 0.25 * static_cast<double>(i) + 1.0 / 3.0;
    sp.corr = 1000 + 7 * i;
    sp.epoch = i % 4 == 0 ? (std::uint64_t{1} << 50) : i / 3;
    sp.price = i % 5 == 0 ? 0.0 : -1.5 + 0.1 * static_cast<double>(i);
    sp.from = static_cast<std::int32_t>(i % 4);
    sp.to = static_cast<std::int32_t>((i + 1) % 4) - 1;
    sp.event = static_cast<CtrlSpanEvent>(i % 8);
    sp.msg = static_cast<std::uint8_t>(i % 4);  // 3 has no name
    tracer.record(sp);
  }
  return tracer;
}

TEST(ExportGolden, WrappedRings) {
  const TaskTracer tasks = wrapped_task_ring();
  const CtrlTracer spans = wrapped_span_ring();
  ASSERT_EQ(tasks.dropped(), 60u);
  ASSERT_EQ(spans.dropped(), 15u);

  expect_hash("write_trace json", trace_file(tasks, "wrapped.trace.json"),
              0xf70fff367b656b15ull);
  expect_hash("write_trace csv", trace_file(tasks, "wrapped.trace.csv"),
              0xc8ff1cf9ca34cca1ull);
  const Json doc = task_doc(tasks);
  expect_hash("trace dump", doc.dump(), 0x0fbe09538197a6f5ull);
  expect_hash("trace dump_pretty", doc.dump_pretty(), 0xc62b30ca923bac1dull);
  const Json events = span_events(spans);
  expect_hash("span events dump", events.dump(), 0xcbd9e961b2b4d3efull);
  expect_hash("span events dump_pretty", events.dump_pretty(),
              0xdc0b6d34836d93abull);
  const Json merged = merged_trace_to_chrome_json(tasks, spans);
  expect_hash("merged dump", merged.dump(), 0x379b84b228c38f86ull);
  expect_hash("merged dump_pretty", merged.dump_pretty(),
              0x7745fac311572cbaull);
  expect_merged_file(tasks, spans, merged);
}

// ---------------------------------------------------------------------------
// Empty tracers: the "traceEvents": [] branch of every layout.

TEST(ExportGolden, EmptyTracers) {
  const TaskTracer disabled;
  const TaskTracer armed(16);
  const CtrlTracer no_spans;
  for (const TaskTracer* t : {&disabled, &armed}) {
    expect_hash("write_trace json", trace_file(*t, "empty.trace.json"),
                0x4b88f9e1e47a82d9ull);
    expect_hash("write_trace csv", trace_file(*t, "empty.trace.csv"),
                0x25fe2e575f15b60cull);
    const Json doc = task_doc(*t);
    expect_hash("trace dump", doc.dump(), 0xf57030c68c2cf045ull);
    expect_hash("trace dump_pretty", doc.dump_pretty(), 0xc62e1e6f288b2b49ull);
    const Json merged = merged_trace_to_chrome_json(*t, no_spans);
    expect_hash("merged dump", merged.dump(), 0x1e4565ba0d043570ull);
    expect_hash("merged dump_pretty", merged.dump_pretty(),
                0x223c2e60de288a76ull);
    expect_merged_file(*t, no_spans, merged);
  }
  const Json events = span_events(no_spans);
  expect_hash("span events dump", events.dump(), 0x09612b07b5ecb5a5ull);
  expect_hash("span events dump_pretty", events.dump_pretty(),
              0x09612b07b5ecb5a5ull);
  expect_hash("empty series",
              file_bytes("empty.series.json",
                         [](const std::string& p) {
                           return TimeSeriesRecorder(8).write(p);
                         }),
              0x9f2b36b807ba8d1full);
  expect_hash("empty registry", MetricsRegistry().to_json().dump_pretty(),
              0x34e10201b665774dull);
  expect_hash("empty audit", DecisionAuditLog().to_json().dump_pretty(),
              0x09612b07b5ecb5a5ull);
}

}  // namespace
}  // namespace scalpel
