// Observability building blocks in isolation: the ring-buffered TaskTracer
// and its exporters (Chrome trace JSON must survive a round trip through the
// project's own JSON parser), the metrics registry, and the controller
// decision audit log.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "obs/metrics.hpp"
#include "obs/slo.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "oracles/oracles.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace scalpel {
namespace {

/// The Chrome task trace document: write_task_doc's text, parsed.
Json task_doc(const std::vector<TraceEvent>& events, std::uint64_t dropped) {
  JsonWriter w;
  write_task_doc(w, events, dropped);
  return Json::parse(w.take());
}

TraceEvent ev(double t, std::uint64_t task, TraceEventType type,
              std::uint8_t arg = 0) {
  TraceEvent e;
  e.time = t;
  e.task = task;
  e.device = 0;
  e.type = type;
  e.arg = arg;
  return e;
}

TEST(TaskTracer, DisabledRecordsNothing) {
  TaskTracer tracer;
  EXPECT_FALSE(tracer.enabled());
  tracer.record(1.0, 0, 0, -1, TraceEventType::kArrive);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(TaskTracer, RingOverflowKeepsNewestAndCountsDropped) {
  TaskTracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.record(static_cast<double>(i), static_cast<std::uint64_t>(i), 0,
                  -1, TraceEventType::kArrive);
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  EXPECT_EQ(tracer.recorded(), 10u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first snapshot of the surviving tail: tasks 6, 7, 8, 9.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].task, 6 + i);
  }
}

TEST(TaskTracer, ResetRearmsAndClears) {
  TaskTracer tracer(2);
  tracer.record(0.0, 0, 0, -1, TraceEventType::kArrive);
  tracer.reset(8);
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.capacity(), 8u);
  tracer.reset(0);
  EXPECT_FALSE(tracer.enabled());
}

TEST(TraceExport, ChromeJsonRoundTripsThroughParser) {
  std::vector<TraceEvent> events;
  events.push_back(ev(0.001, 7, TraceEventType::kArrive));
  events.push_back(ev(0.002, 7, TraceEventType::kExecStart,
                      static_cast<std::uint8_t>(TraceStage::kDevice)));
  events.push_back(ev(0.004, 7, TraceEventType::kExecEnd,
                      static_cast<std::uint8_t>(TraceStage::kDevice)));
  events.push_back(ev(0.005, 7, TraceEventType::kComplete));

  const Json doc = task_doc(events, 0);
  const Json parsed = Json::parse(doc.dump_pretty());
  const Json& arr = parsed.at("traceEvents");
  ASSERT_EQ(arr.size(), 4u);
  // The exec pair renders as a B/E duration span on pid=device, tid=task.
  EXPECT_EQ(arr.at(1).at("ph").as_string(), "B");
  EXPECT_EQ(arr.at(2).at("ph").as_string(), "E");
  EXPECT_EQ(arr.at(1).at("name").as_string(), "device-exec");
  EXPECT_EQ(arr.at(1).at("tid").as_int(), 7);
  EXPECT_DOUBLE_EQ(arr.at(1).at("ts").as_number(), 2000.0);  // µs
  // Instants keep the lifecycle name and thread scope.
  EXPECT_EQ(arr.at(0).at("ph").as_string(), "i");
  EXPECT_EQ(arr.at(0).at("args").at("event").as_string(), "arrive");
  EXPECT_EQ(arr.at(3).at("args").at("event").as_string(), "complete");
}

TEST(TraceExport, TracerOverloadReportsDrops) {
  TaskTracer tracer(1);
  tracer.record(0.0, 0, 0, -1, TraceEventType::kArrive);
  tracer.record(1.0, 1, 0, -1, TraceEventType::kArrive);
  const Json doc = task_doc(tracer.snapshot(), tracer.dropped());
  EXPECT_EQ(doc.at("droppedEvents").as_int(), 1);
  EXPECT_EQ(doc.at("traceEvents").size(), 1u);
}

TEST(TraceExport, TableHasOneRowPerEvent) {
  TaskTracer tracer(8);
  tracer.record(0.5, 1, 0, -1, TraceEventType::kArrive);
  tracer.record(0.75, 1, 0, 3, TraceEventType::kRetry, 2);
  tracer.record(1.0, 1, 0, -1, TraceEventType::kShed);
  const std::string path = ::testing::TempDir() + "obs_test_trace_" +
                           std::to_string(static_cast<long>(::getpid())) +
                           ".csv";
  ASSERT_TRUE(write_trace(tracer, path));
  std::ifstream in(path, std::ios::binary);
  std::ostringstream csv;
  csv << in.rdbuf();
  in.close();
  std::remove(path.c_str());
  EXPECT_EQ(csv.str(),
            "time_s,task,device,server,event,arg\n"
            "0.500000,1,0,-1,arrive,0\n"
            "0.750000,1,0,3,retry,2\n"
            "1.000000,1,0,-1,shed,0\n");
}

TEST(TraceExport, EventCountsIndexByType) {
  std::vector<TraceEvent> events;
  events.push_back(ev(0.0, 0, TraceEventType::kArrive));
  events.push_back(ev(0.0, 1, TraceEventType::kArrive));
  events.push_back(ev(1.0, 0, TraceEventType::kComplete));
  const auto counts = trace_event_counts(events);
  EXPECT_EQ(counts[static_cast<std::size_t>(TraceEventType::kArrive)], 2u);
  EXPECT_EQ(counts[static_cast<std::size_t>(TraceEventType::kComplete)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(TraceEventType::kFail)], 0u);
}

TEST(MetricsRegistry, HandlesAreStableAcrossInsertions) {
  MetricsRegistry reg;
  Counter& a = reg.counter("a.count");
  a.inc();
  // Later insertions must not invalidate the earlier handle.
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler." + std::to_string(i));
  }
  a.inc(2);
  EXPECT_EQ(reg.counter("a.count").value(), 3u);
  Gauge& g = reg.gauge("g.depth");
  g.set(4.5);
  EXPECT_DOUBLE_EQ(reg.gauge("g.depth").value(), 4.5);
}

TEST(MetricsRegistry, HistogramQuantilesInterpolate) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("lat", 0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  EXPECT_NEAR(h.p50(), 50.0, 1.5);
  EXPECT_NEAR(h.p95(), 95.0, 1.5);
  EXPECT_NEAR(h.p99(), 99.0, 1.5);
  EXPECT_EQ(h.total(), 100u);
  // Re-requesting returns the same histogram, not a fresh one.
  EXPECT_EQ(reg.histogram("lat", 0.0, 1.0, 2).total(), 100u);
}

TEST(MetricsRegistry, JsonExportRoundTrips) {
  MetricsRegistry reg;
  reg.counter("sim.task.arrived").inc(12);
  reg.gauge("sim.availability").set(0.75);
  reg.histogram("sim.task.latency_seconds", 0.0, 1.0, 10).add(0.25);
  const Json doc = Json::parse(reg.to_json().dump_pretty());
  EXPECT_EQ(doc.at("counters").at("sim.task.arrived").as_int(), 12);
  EXPECT_DOUBLE_EQ(doc.at("gauges").at("sim.availability").as_number(), 0.75);
  const Json& h = doc.at("histograms").at("sim.task.latency_seconds");
  EXPECT_EQ(h.at("count").as_int(), 1);
  EXPECT_EQ(h.at("bins").size(), 10u);
}

TEST(AuditLog, StampsRecordsWithTheAdvancedClock) {
  DecisionAuditLog log;
  log.advance_time(12.5);
  AuditRecord r;
  r.cause = AuditCause::kRungDown;
  r.detail = "device 0 rate 9.10/5.00 tasks/s";
  log.append(r);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log.records().front().time, 12.5);
  EXPECT_EQ(std::string(audit_cause_name(log.records().front().cause)),
            "rung_down");
}

TEST(AuditLog, EvictsOldestBeyondCapacity) {
  DecisionAuditLog log(2);
  for (int i = 0; i < 3; ++i) {
    log.advance_time(static_cast<double>(i));
    log.append(AuditRecord{});
  }
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.dropped(), 1u);
  EXPECT_DOUBLE_EQ(log.records().front().time, 1.0);
}

TEST(AuditLog, WraparoundKeepsExactlyCapacityNewestInOrder) {
  DecisionAuditLog log(4);
  // Push far past capacity, several wraps' worth, with distinguishable
  // payloads so eviction order is observable, not just counts.
  for (int i = 0; i < 19; ++i) {
    log.advance_time(static_cast<double>(i));
    AuditRecord r;
    r.cause = AuditCause::kResolve;
    r.detail = "obs " + std::to_string(i);
    log.append(r);
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 15u);
  // Survivors are the newest four, oldest-first.
  for (std::size_t k = 0; k < 4; ++k) {
    EXPECT_DOUBLE_EQ(log.records()[k].time, static_cast<double>(15 + k));
    EXPECT_EQ(log.records()[k].detail, "obs " + std::to_string(15 + k));
  }
}

TEST(AuditLog, ExportsStayWellFormedAfterOverflow) {
  DecisionAuditLog log(3);
  for (int i = 0; i < 10; ++i) {
    log.advance_time(static_cast<double>(i));
    AuditRecord r;
    r.cause = i % 2 == 0 ? AuditCause::kRungDown : AuditCause::kRungUp;
    r.rung_before = static_cast<std::size_t>(i);
    r.rung_after = static_cast<std::size_t>(i + 1);
    log.append(r);
  }
  // JSON round-trips through the parser and holds only the survivors.
  const Json doc = Json::parse(log.to_json().dump_pretty());
  ASSERT_EQ(doc.size(), 3u);
  EXPECT_DOUBLE_EQ(doc.at(0).at("time").as_number(), 7.0);
  EXPECT_EQ(doc.at(2).at("cause").as_string(), "rung_up");
  EXPECT_DOUBLE_EQ(doc.at(2).at("rung_after").as_number(), 10.0);
  // Table view: one row per surviving record (plus header in CSV form).
  EXPECT_EQ(log.to_table().rows(), 3u);
}

TEST(AuditLog, ClearResetsRecordsAndDropCounter) {
  DecisionAuditLog log(2);
  for (int i = 0; i < 5; ++i) log.append(AuditRecord{});
  EXPECT_EQ(log.dropped(), 3u);
  log.clear();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.dropped(), 0u);
  log.append(AuditRecord{});
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.dropped(), 0u);
}

TEST(AuditLog, NamesNewRobustnessCauses) {
  EXPECT_EQ(std::string(audit_cause_name(AuditCause::kTelemetryRejected)),
            "telemetry_rejected");
  EXPECT_EQ(std::string(audit_cause_name(AuditCause::kSolverTimeout)),
            "solver_timeout");
  EXPECT_EQ(std::string(audit_cause_name(AuditCause::kPlanRejected)),
            "plan_rejected");
  EXPECT_EQ(std::string(audit_cause_name(AuditCause::kFallbackApplied)),
            "fallback_applied");
}

TEST(AuditLog, JsonExportRoundTrips) {
  DecisionAuditLog log;
  log.advance_time(3.0);
  AuditRecord r;
  r.cause = AuditCause::kThrottleOn;
  r.detail = "ladder exhausted";
  r.rung_before = 4;
  r.rung_after = 4;
  r.admit_before = 1.0;
  r.admit_after = 0.6;
  log.append(r);
  const Json doc = Json::parse(log.to_json().dump_pretty());
  ASSERT_EQ(doc.size(), 1u);
  EXPECT_EQ(doc.at(0).at("cause").as_string(), "throttle_on");
  EXPECT_DOUBLE_EQ(doc.at(0).at("admit_after").as_number(), 0.6);
  EXPECT_DOUBLE_EQ(doc.at(0).at("time").as_number(), 3.0);
}

TEST(MetricsRegistry, HistogramQuantileBinEdgesInterpolate) {
  // 100 bins of width 1, one sample per bin at midpoint position: the j-th
  // sample resolves to exactly j + 0.5 under the in-bin midpoint convention.
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("edge", 0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i) + 0.5);
  // q=0 / q=1 are the first and last samples INSIDE their bins — the old
  // code snapped them to the outer bin boundaries (0.0 and 100.0), biasing
  // extreme percentiles outward by half a bin step.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 99.5);
  // p50 with an even count interpolates midway between samples 49 and 50.
  EXPECT_DOUBLE_EQ(h.p50(), 50.0);
  // Continuous rank: q=0.99 over 100 samples is rank 98.01, interpolating
  // just past sample 98.
  EXPECT_NEAR(h.p99(), 98.51, 1e-9);
}

TEST(MetricsRegistry, HistogramQuantileSingleSample) {
  // One sample in one bin: every quantile is that sample's in-bin midpoint,
  // never the bin's lower or upper edge.
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("single", 0.0, 10.0, 10);
  h.add(5.2);  // lands in bin [5, 6)
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 5.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 5.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 5.5);
}

TEST(MetricsRegistry, HistogramQuantileSkewedMassStaysInsideBins) {
  // 9 samples in the first bin, 1 in the last: p50 stays inside bin 0 and
  // p100 inside the last bin; no quantile escapes the occupied bins.
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("skew", 0.0, 10.0, 10);
  for (int i = 0; i < 9; ++i) h.add(0.5);
  h.add(9.5);
  const double p50 = h.p50();
  EXPECT_GT(p50, 0.0);
  EXPECT_LT(p50, 1.0);
  EXPECT_GT(h.quantile(1.0), 9.0);
  EXPECT_LT(h.quantile(1.0), 10.0);
}

EngineSample es(double t, std::uint64_t done, std::uint64_t met,
                std::uint64_t total) {
  EngineSample s;
  s.time = t;
  s.arrived = done + 3;
  s.completed = done;
  s.deadline_met = met;
  s.deadline_total = total;
  s.in_flight = 3.0;
  s.queue_depth = 1.0;
  return s;
}

TEST(TimeSeriesRecorder, ColumnsFreezeWithSourcesAndSampleRows) {
  TimeSeriesRecorder rec(8);
  double price = 1.5;
  std::uint64_t epochs = 0;
  rec.register_gauge("ctrl.price", [&] { return price; });
  rec.register_counter("ctrl.epochs", [&] {
    return static_cast<double>(epochs);
  });
  rec.sample(es(1.0, 10, 9, 10));
  epochs = 2;
  price = 2.5;
  rec.sample(es(2.0, 20, 18, 20));

  ASSERT_EQ(rec.size(), 2u);
  // Layout: time first, then built-in engine columns, then sources in
  // registration order.
  EXPECT_EQ(rec.columns().front(), "time");
  const std::size_t price_col = rec.column_index("ctrl.price");
  const std::size_t epoch_col = rec.column_index("ctrl.epochs");
  EXPECT_FALSE(rec.cumulative()[price_col]);
  EXPECT_TRUE(rec.cumulative()[epoch_col]);
  EXPECT_TRUE(rec.cumulative()[rec.column_index("sim.completed")]);
  EXPECT_FALSE(rec.cumulative()[rec.column_index("sim.in_flight")]);
  EXPECT_DOUBLE_EQ(rec.value(0, price_col), 1.5);
  EXPECT_DOUBLE_EQ(rec.value(1, price_col), 2.5);
  EXPECT_DOUBLE_EQ(rec.value(1, epoch_col), 2.0);
  EXPECT_DOUBLE_EQ(rec.last_time(), 2.0);
}

TEST(TimeSeriesRecorder, RingEvictsOldestAndWindowDeltaDifferences) {
  TimeSeriesRecorder rec(4);
  for (int i = 1; i <= 6; ++i) {
    rec.sample(es(static_cast<double>(i),
                  static_cast<std::uint64_t>(10 * i),
                  static_cast<std::uint64_t>(9 * i),
                  static_cast<std::uint64_t>(10 * i)));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  // Oldest retained row is sample 3 (time 3.0).
  EXPECT_DOUBLE_EQ(rec.value(0, 0), 3.0);
  const std::size_t done = rec.column_index("sim.completed");
  // Trailing 2 s window: newest (60 at t=6) minus the newest row with
  // time <= 4 (40 at t=4).
  EXPECT_DOUBLE_EQ(rec.delta_from(window_base_row(rec, 2.0), done), 20.0);
  // Window covering more than the retained series falls back to the
  // run-start baseline of 0.
  EXPECT_DOUBLE_EQ(rec.delta_from(window_base_row(rec, 100.0), done), 60.0);
}

TEST(TimeSeriesRecorder, CursorBaseRowMatchesSearchEverywhere) {
  TimeSeriesRecorder rec(8);
  std::uint64_t cursors[3] = {0, 0, 0};
  const double windows[3] = {1.5, 4.0, 100.0};
  for (int i = 1; i <= 24; ++i) {
    rec.sample(es(0.5 * i, static_cast<std::uint64_t>(i),
                  static_cast<std::uint64_t>(i),
                  static_cast<std::uint64_t>(i)));
    // The cursor variant must agree with the binary search at every step,
    // through ring wrap and eviction of rows the cursor pointed into.
    for (int w = 0; w < 3; ++w) {
      EXPECT_EQ(rec.window_base_row_from(&cursors[w], windows[w]),
                window_base_row(rec, windows[w]))
          << "sample " << i << " window " << windows[w];
    }
  }
}

TEST(TimeSeriesRecorder, ClearKeepsSourcesAndExportsRoundTrip) {
  TimeSeriesRecorder rec(4);
  rec.register_gauge("ctrl.price", [] { return 7.0; });
  rec.sample(es(1.0, 1, 1, 1));
  rec.clear();
  EXPECT_TRUE(rec.empty());
  // Sources survive clear(): the next sample re-freezes the same layout.
  rec.sample(es(2.0, 2, 2, 2));
  EXPECT_DOUBLE_EQ(rec.value(0, rec.column_index("ctrl.price")), 7.0);

  const Json doc = Json::parse(rec.to_json().dump_pretty());
  EXPECT_EQ(doc.at("columns").size(), rec.columns().size());
  ASSERT_EQ(doc.at("rows").size(), 1u);
  EXPECT_DOUBLE_EQ(doc.at("rows").at(0).at(0).as_number(), 2.0);
  EXPECT_EQ(rec.to_table().rows(), 1u);
}

TEST(SloMonitor, BurnRateMathAndTransitionsHitTheAuditLog) {
  TimeSeriesRecorder rec(64);
  DecisionAuditLog audit;
  SloMonitor slo(&rec, &audit);
  SloSpec spec;
  spec.name = "deadline";
  spec.good = "sim.deadline_met";
  spec.total = "sim.deadline_total";
  spec.objective = 0.9;
  spec.windows = {{4.0, 1.0}};
  slo.add(spec);

  // Healthy phase: 100% of deadlines met, burn 0, no alert.
  std::uint64_t met = 0;
  std::uint64_t total = 0;
  double t = 0.0;
  for (int i = 0; i < 8; ++i) {
    t += 1.0;
    met += 10;
    total += 10;
    rec.sample(es(t, total, met, total));
    slo.evaluate();
  }
  EXPECT_FALSE(slo.alerting(0));
  EXPECT_DOUBLE_EQ(slo.burn_rate(0, 0), 0.0);

  // Degraded phase: 20% of deadlines missed burns the 10% error budget at
  // exactly 2.0x, crossing the 1.0x threshold.
  for (int i = 0; i < 8; ++i) {
    t += 1.0;
    met += 8;
    total += 10;
    rec.sample(es(t, total, met, total));
    slo.evaluate();
  }
  EXPECT_TRUE(slo.alerting(0));
  EXPECT_NEAR(slo.burn_rate(0, 0), 2.0, 1e-9);
  EXPECT_EQ(slo.alerts_started(), 1u);

  // Recovery: burn recedes below threshold, alert stops.
  for (int i = 0; i < 8; ++i) {
    t += 1.0;
    met += 10;
    total += 10;
    rec.sample(es(t, total, met, total));
    slo.evaluate();
  }
  EXPECT_FALSE(slo.alerting(0));
  EXPECT_EQ(slo.alerts_stopped(), 1u);

  // Both transitions landed in the audit log, stamped with recorder time
  // and carrying the human-readable burn summary.
  ASSERT_EQ(audit.size(), 2u);
  EXPECT_EQ(audit.records()[0].cause, AuditCause::kSloBurnStart);
  EXPECT_EQ(audit.records()[1].cause, AuditCause::kSloBurnStop);
  EXPECT_NE(audit.records()[0].detail.find("slo deadline"),
            std::string::npos);
  EXPECT_GT(audit.records()[1].time, audit.records()[0].time);
}

TEST(SloMonitor, AllWindowsMustBurnBeforeAlerting) {
  // Fast 2 s window at 1.0x plus sustained 16 s window at 0.5x: a short
  // blip trips the fast window but not the sustained one — no alert.
  TimeSeriesRecorder rec(64);
  SloMonitor slo(&rec);
  SloSpec spec;
  spec.name = "deadline";
  spec.good = "sim.deadline_met";
  spec.total = "sim.deadline_total";
  spec.objective = 0.9;
  spec.windows = {{2.0, 1.0}, {16.0, 0.5}};
  slo.add(spec);

  std::uint64_t met = 0;
  std::uint64_t total = 0;
  double t = 0.0;
  for (int i = 0; i < 16; ++i) {
    t += 1.0;
    met += 10;
    total += 10;
    rec.sample(es(t, total, met, total));
    slo.evaluate();
  }
  // One bad second: the 2 s window burns at 1.0x+, the 16 s window barely.
  t += 1.0;
  met += 5;
  total += 10;
  rec.sample(es(t, total, met, total));
  slo.evaluate();
  EXPECT_GE(slo.burn_rate(0, 0), 1.0);
  EXPECT_LT(slo.burn_rate(0, 1), 0.5);
  EXPECT_FALSE(slo.alerting(0));
  EXPECT_EQ(slo.alerts_started(), 0u);
}

CtrlSpan span(double t, std::uint64_t corr, CtrlSpanEvent event) {
  CtrlSpan s;
  s.time = t;
  s.corr = corr;
  s.epoch = 3;
  s.price = 0.25;
  s.from = 0;
  s.to = 2;
  s.event = event;
  s.msg = 1;
  return s;
}

TEST(CtrlTracer, DisabledRecordsNothingEnabledRingEvicts) {
  CtrlTracer off;
  EXPECT_FALSE(off.enabled());
  off.record(span(0.0, 1, CtrlSpanEvent::kSent));
  EXPECT_EQ(off.recorded(), 0u);

  CtrlTracer tracer(3);
  for (int i = 0; i < 7; ++i) {
    tracer.record(span(static_cast<double>(i),
                       static_cast<std::uint64_t>(i), CtrlSpanEvent::kSent));
  }
  EXPECT_EQ(tracer.size(), 3u);
  EXPECT_EQ(tracer.dropped(), 4u);
  const auto spans = tracer.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    EXPECT_EQ(spans[i].corr, 4 + i);  // newest three, oldest first
  }
  tracer.reset(0);
  EXPECT_FALSE(tracer.enabled());
}

TEST(CtrlSpans, ChromeEventsCarryCausalIdentityAndCounts) {
  std::vector<CtrlSpan> spans;
  spans.push_back(span(0.010, 42, CtrlSpanEvent::kSent));
  spans.push_back(span(0.020, 42, CtrlSpanEvent::kDropped));
  spans.push_back(span(0.030, 42, CtrlSpanEvent::kRegrant));
  spans.push_back(span(0.040, 42, CtrlSpanEvent::kDelivered));
  spans.push_back(span(0.040, 42, CtrlSpanEvent::kAdopted));

  CtrlTracer ring(8);
  for (const auto& sp : spans) ring.record(sp);
  // With no task events, the merged document's events are the spans alone.
  const Json doc = Json::parse(
      merged_trace_to_chrome_json(TaskTracer{}, ring).dump());
  const Json& arr = doc.at("traceEvents");
  ASSERT_EQ(arr.size(), 5u);
  // All events of one causal chain share pid=kCtrlChromePid and tid=corr,
  // so Chrome renders mint -> drop -> re-grant -> adopt as one lane.
  for (std::size_t i = 0; i < arr.size(); ++i) {
    EXPECT_EQ(arr.at(i).at("pid").as_int(), kCtrlChromePid);
    EXPECT_EQ(arr.at(i).at("tid").as_int(), 42);
    EXPECT_EQ(arr.at(i).at("args").at("epoch").as_int(), 3);
    EXPECT_DOUBLE_EQ(arr.at(i).at("args").at("price").as_number(), 0.25);
  }
  EXPECT_DOUBLE_EQ(arr.at(0).at("ts").as_number(), 10000.0);  // µs
  EXPECT_EQ(arr.at(2).at("args").at("span").as_string(), "regrant");
  EXPECT_EQ(arr.at(2).at("name").as_string(), "slice_grant:regrant");

  const auto counts = ctrl_span_counts(spans);
  EXPECT_EQ(counts[static_cast<std::size_t>(CtrlSpanEvent::kSent)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(CtrlSpanEvent::kAdopted)], 1u);
  EXPECT_EQ(counts[static_cast<std::size_t>(CtrlSpanEvent::kDeadLetter)], 0u);
}

TEST(CtrlSpans, MergedTraceSplicesTaskAndCtrlLanes) {
  TaskTracer tasks(8);
  tasks.record(0.001, 7, 0, -1, TraceEventType::kArrive);
  CtrlTracer ctrl(8);
  ctrl.record(span(0.002, 9, CtrlSpanEvent::kSent));
  const Json doc = Json::parse(merged_trace_to_chrome_json(tasks, ctrl).dump());
  const Json& arr = doc.at("traceEvents");
  ASSERT_EQ(arr.size(), 2u);
  EXPECT_EQ(doc.at("droppedEvents").as_int(), 0);
  EXPECT_EQ(doc.at("droppedSpans").as_int(), 0);
  // Task lane keeps its device pid; the ctrl lane sits at kCtrlChromePid.
  EXPECT_LT(arr.at(0).at("pid").as_int(), kCtrlChromePid);
  EXPECT_EQ(arr.at(1).at("pid").as_int(), kCtrlChromePid);
}

}  // namespace
}  // namespace scalpel
