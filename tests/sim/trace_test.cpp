// End-to-end tracing guarantees: the event stream of a traced run must
// reconcile exactly with the simulator's conservation counters, the registry
// must agree with SimMetrics, and a fixed seed must produce a bit-identical
// trace regardless of how many threads the replicated runner fans out over.

#include <gtest/gtest.h>

#include <vector>

#include "core/objective.hpp"
#include "ctrl/plane.hpp"
#include "edge/builders.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "profile/compute_profile.hpp"
#include "profile/energy_model.hpp"
#include "sim/runner.hpp"
#include "sim/simulator.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

ClusterTopology two_devices(double rate, double deadline = 0.0) {
  ClusterTopology t;
  const CellId cell = t.add_cell(Cell{-1, "c", mbps(100.0), ms(1.0)});
  for (int i = 0; i < 2; ++i) {
    Device d;
    d.name = "dev" + std::to_string(i);
    d.compute = profiles::smartphone();
    d.energy = profiles::energy_phone();
    d.cell = cell;
    d.model = "tiny_cnn";
    d.arrival_rate = rate;
    d.deadline = deadline;
    t.add_device(d);
  }
  EdgeServer s;
  s.name = "srv";
  s.compute = profiles::edge_gpu_t4();
  s.backhaul_rtt = ms(0.5);
  t.add_server(s);
  return t;
}

Decision offload_decision(const ProblemInstance& instance,
                          double share = 0.4, double bw = mbps(40.0)) {
  Decision d;
  d.scheme = "test_offload";
  d.per_device.resize(instance.topology().devices().size());
  for (auto& dd : d.per_device) {
    dd.plan.partition_after = 0;
    dd.server = 0;
    dd.compute_share = share;
    dd.bandwidth = bw;
  }
  evaluate_decision(instance, d);
  return d;
}

std::size_t count(const std::vector<std::size_t>& counts,
                  TraceEventType type) {
  return counts[static_cast<std::size_t>(type)];
}

TEST(Trace, EventsReconcileWithConservationCounters) {
  const ClusterTopology topo = two_devices(300.0, 0.1);
  const ProblemInstance instance(topo);
  // A starved uplink grant makes the upload queue the bottleneck, so the
  // bounded queues actually shed under the offered load.
  const Decision d = offload_decision(instance, 0.05, mbps(2.0));

  Simulator::Options o;
  o.horizon = 40.0;
  o.warmup = 4.0;
  o.seed = 23;
  o.trace_capacity = 1 << 18;
  // Tight bounds + expiry shedding so shed/expire terminals appear too.
  o.overload.policy = OverloadPolicy::ShedExpired;
  o.overload.device_queue_limit = 4;
  o.overload.upload_queue_limit = 2;
  o.overload.server_queue_limit = 2;

  Simulator sim(instance, d, o);
  const SimMetrics m = sim.run();
  ASSERT_EQ(sim.trace().dropped(), 0u);
  const auto counts = trace_event_counts(sim.trace().snapshot());

  EXPECT_EQ(count(counts, TraceEventType::kArrive), m.arrived);
  EXPECT_EQ(count(counts, TraceEventType::kComplete), m.completed_all);
  EXPECT_EQ(count(counts, TraceEventType::kFail), m.failed_all);
  EXPECT_EQ(count(counts, TraceEventType::kShed) +
                count(counts, TraceEventType::kExpire),
            m.shed_all);
  // Every arrival ends in exactly one terminal event or is still in flight.
  EXPECT_EQ(count(counts, TraceEventType::kArrive),
            count(counts, TraceEventType::kComplete) +
                count(counts, TraceEventType::kFail) +
                count(counts, TraceEventType::kShed) +
                count(counts, TraceEventType::kExpire) + m.in_flight_end);
  EXPECT_GT(m.shed_all, 0u);  // the bounds were tight enough to matter
}

TEST(Trace, RegistryCountersMatchSimMetrics) {
  const ClusterTopology topo = two_devices(3.0);
  const ProblemInstance instance(topo);
  const Decision d = offload_decision(instance);

  Simulator::Options o;
  o.horizon = 30.0;
  o.warmup = 3.0;
  o.seed = 5;
  Simulator sim(instance, d, o);
  const SimMetrics m = sim.run();
  const auto& counters = sim.registry().counters();
  EXPECT_EQ(counters.at("sim.task.arrived").value(), m.arrived);
  EXPECT_EQ(counters.at("sim.task.completed").value(), m.completed_all);
  EXPECT_EQ(counters.at("sim.task.failed").value(), m.failed_all);
  EXPECT_EQ(counters.at("sim.task.shed").value() +
                counters.at("sim.task.expired").value(),
            m.shed_all);
  EXPECT_EQ(sim.registry().gauges().at("sim.task.in_flight_end").value(),
            static_cast<double>(m.in_flight_end));
  EXPECT_EQ(sim.registry().histograms().at("sim.task.latency_seconds").total(),
            m.latency.count());
}

TEST(Trace, RingOverflowInARealRunKeepsCapacityEvents) {
  const ClusterTopology topo = two_devices(4.0);
  const ProblemInstance instance(topo);
  const Decision d = offload_decision(instance);

  Simulator::Options o;
  o.horizon = 20.0;
  o.warmup = 2.0;
  o.seed = 3;
  o.trace_capacity = 64;  // far fewer than the run emits
  Simulator sim(instance, d, o);
  sim.run();
  EXPECT_EQ(sim.trace().size(), 64u);
  EXPECT_GT(sim.trace().dropped(), 0u);
  EXPECT_EQ(sim.trace().snapshot().size(), 64u);
}

// Sharded traces account for every event they lose: with rings far smaller
// than the run, the retained events plus trace_dropped() equal what the same
// run records into ample rings, and the Chrome export reports the loss.
TEST(Trace, ShardedRingOverflowReportsDrops) {
  clusters::CampusOptions copts;
  copts.seed = 11;
  copts.num_devices = 8;
  copts.num_servers = 3;
  copts.devices_per_cell = 2;
  copts.mean_arrival_rate = 3.0;
  const ProblemInstance instance(clusters::campus(copts));
  const Decision d = offload_decision(instance, 0.1);

  Simulator::Options o;
  o.horizon = 10.0;
  o.warmup = 1.0;
  o.seed = 11;
  o.faults.schedule = FaultSchedule::server_crash(0, 3.0, 5.0);
  ShardOptions so;
  so.shards = 2;

  o.trace_capacity = 1 << 16;
  ShardedSimulator ample(instance, d, o, so);
  ample.run();
  ASSERT_EQ(ample.plan().num_shards, 2u);
  ASSERT_EQ(ample.trace_dropped(), 0u);
  const std::size_t recorded = ample.trace_events().size();

  o.trace_capacity = 32;
  ShardedSimulator tiny(instance, d, o, so);
  tiny.run();
  const std::vector<TraceEvent> kept = tiny.trace_events();
  EXPECT_GT(tiny.trace_dropped(), 0u);
  EXPECT_EQ(kept.size() + tiny.trace_dropped(), recorded);
  JsonWriter w;
  write_task_doc(w, kept, tiny.trace_dropped());
  const Json doc = Json::parse(w.take());
  EXPECT_EQ(static_cast<std::uint64_t>(doc.at("droppedEvents").as_int()),
            tiny.trace_dropped());
}

TEST(Trace, BitIdenticalAcrossThreadCounts) {
  const ClusterTopology topo = two_devices(5.0, 0.3);
  const ProblemInstance instance(topo);
  const Decision d = offload_decision(instance);

  ScenarioRunner::Options ro;
  ro.replications = 6;
  ro.sim.horizon = 25.0;
  ro.sim.warmup = 2.5;
  ro.sim.seed = 99;
  ro.sim.trace_capacity = 1 << 18;
  ro.sim.overload.policy = OverloadPolicy::ShedExpired;
  ro.sim.overload.device_queue_limit = 8;

  ro.threads = 1;
  const auto serial = ScenarioRunner(instance, d, ro).run();
  ro.threads = 4;
  const auto parallel = ScenarioRunner(instance, d, ro).run();

  ASSERT_EQ(serial.traces.size(), ro.replications);
  ASSERT_EQ(parallel.traces.size(), ro.replications);
  bool nonempty = false;
  for (std::size_t r = 0; r < ro.replications; ++r) {
    ASSERT_EQ(serial.traces[r].size(), parallel.traces[r].size())
        << "replication " << r;
    for (std::size_t i = 0; i < serial.traces[r].size(); ++i) {
      ASSERT_TRUE(serial.traces[r][i] == parallel.traces[r][i])
          << "replication " << r << " event " << i;
    }
    nonempty = nonempty || !serial.traces[r].empty();
  }
  EXPECT_TRUE(nonempty);
  // Different replications must not share an event stream (distinct seeds).
  EXPECT_FALSE(serial.traces[0] == serial.traces[1]);
}

TEST(Trace, MergedChromeTraceRoundTripsTaskAndCtrlLanes) {
  // A controller-driven run over a lossy fabric, task tracing and span
  // tracing both on: the merged Chrome document must round-trip through the
  // project's parser with every task event on a device pid and every
  // control-plane span on the dedicated kCtrlChromePid lane, and the span
  // stream must reconcile with the published ctrl.* metrics.
  const ClusterTopology topo = two_devices(3.0, 0.3);
  const ProblemInstance instance(topo);
  const Decision d = offload_decision(instance);

  DistributedPlaneOptions po;
  po.cell.solver = [&](const ProblemInstance& sub, const JointOptions&) {
    return offload_decision(sub);
  };
  po.fabric.delay = 0.1;
  po.fabric.jitter = 0.4;
  po.fabric.drop_prob = 0.1;
  po.seed = 7;
  po.span_capacity = 1 << 12;
  DistributedControlPlane plane(topo, po);

  Simulator::Options o;
  o.horizon = 20.0;
  o.warmup = 2.0;
  o.seed = 11;
  o.control_interval = 1.0;
  o.trace_capacity = 1 << 16;
  Simulator sim(instance, d, o);
  sim.set_controller(plane.callback());
  sim.run();

  const auto spans = plane.ctrl_trace().snapshot();
  ASSERT_GT(spans.size(), 0u);
  ASSERT_GT(sim.trace().size(), 0u);

  const Json doc = Json::parse(
      merged_trace_to_chrome_json(sim.trace(), plane.ctrl_trace()).dump());
  const Json& arr = doc.at("traceEvents");
  std::size_t ctrl_lane = 0;
  std::size_t task_lane = 0;
  for (std::size_t i = 0; i < arr.size(); ++i) {
    if (arr.at(i).at("pid").as_int() == kCtrlChromePid) {
      ++ctrl_lane;
      // Every span event carries its causal identity on the shared clock.
      EXPECT_GE(arr.at(i).at("args").at("corr").as_int(), 0);
      EXPECT_GE(arr.at(i).at("ts").as_number(), 0.0);
    } else {
      ++task_lane;
    }
  }
  EXPECT_EQ(ctrl_lane, spans.size());
  EXPECT_GT(task_lane, 0u);
  EXPECT_EQ(doc.at("droppedSpans").as_int(), 0);

  // The same reconciliation validate-trace performs: span counts close the
  // conservation identity against the published ctrl.* registry view.
  MetricsRegistry reg;
  plane.publish_metrics(reg);
  const auto counts = ctrl_span_counts(spans);
  const auto count_of = [&](CtrlSpanEvent e) {
    return static_cast<std::uint64_t>(counts[static_cast<std::size_t>(e)]);
  };
  EXPECT_EQ(count_of(CtrlSpanEvent::kSent),
            reg.counter("ctrl.msg.sent").value());
  EXPECT_EQ(count_of(CtrlSpanEvent::kSent),
            count_of(CtrlSpanEvent::kDropped) +
                count_of(CtrlSpanEvent::kDelivered) +
                reg.counter("ctrl.msg.dropped_dead").value() +
                static_cast<std::uint64_t>(
                    reg.gauge("ctrl.in_flight").value()));
  EXPECT_GT(count_of(CtrlSpanEvent::kDropped), 0u);  // the fabric was lossy
}

TEST(Trace, DisabledByDefaultAndEmpty) {
  const ClusterTopology topo = two_devices(2.0);
  const ProblemInstance instance(topo);
  const Decision d = offload_decision(instance);
  Simulator::Options o;
  o.horizon = 10.0;
  o.warmup = 1.0;
  Simulator sim(instance, d, o);
  sim.run();
  EXPECT_FALSE(sim.trace().enabled());
  EXPECT_EQ(sim.trace().size(), 0u);
}

}  // namespace
}  // namespace scalpel
