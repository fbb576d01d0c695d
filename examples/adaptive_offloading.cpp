// Online adaptation scenario: wireless bandwidth swings between a good and a
// congested state while inference traffic flows. Runs the same deployment
// twice through the simulator — once frozen to the initial decision, once
// with the hysteresis-gated OnlineController re-optimizing live — and prints
// the timeline of re-optimizations.
//
//   $ ./examples/adaptive_offloading

#include <cstdio>
#include <vector>

#include "core/joint.hpp"
#include "core/online.hpp"
#include "edge/builders.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

using namespace scalpel;

int main() {
  std::printf("== Adaptive offloading under bandwidth dynamics ==\n\n");
  const auto topo = clusters::small_lab();
  const ProblemInstance instance(topo);
  const double good = topo.cell(0).bandwidth;

  Rng rng(99);
  const auto trace =
      BandwidthTrace::gilbert(good, mbps(16.0), 18.0, 10.0, 150.0, rng);
  std::printf("bandwidth trace (Gilbert good/bad):\n");
  for (const auto& seg : trace.segments()) {
    std::printf("  t=%6.1fs  %5.1f Mbps\n", seg.start,
                seg.bandwidth * 8.0 / 1e6);
  }
  std::printf("\n");

  const JointOptimizer optimizer;
  const Decision initial = optimizer.optimize(instance);

  struct Run {
    const char* name;
    SimMetrics metrics;
    std::vector<double> reopt_times;
  };
  std::vector<Run> runs;

  for (const bool adaptive : {false, true}) {
    Simulator::Options opts;
    opts.horizon = 150.0;
    opts.warmup = 5.0;
    opts.seed = 17;
    if (adaptive) opts.control_interval = 5.0;
    Simulator sim(instance, initial, opts);
    sim.set_cell_trace(0, trace);

    OnlineController controller(topo);
    std::vector<double> reopts;
    if (adaptive) {
      sim.set_controller([&, tick = controller.callback()](Observation o) {
        o.offered_rate.clear();  // liveness and bandwidth only: no load signals
        o.queue_depth.clear();
        ControlAction a = tick(o);
        if (a.decision) reopts.push_back(o.time);
        return a;
      });
    }
    runs.push_back(Run{adaptive ? "adaptive" : "static", sim.run(),
                       std::move(reopts)});
  }

  Table t({"run", "mean ms", "p95 ms", "p99 ms", "deadline sat.",
           "re-optimizations"});
  for (const auto& r : runs) {
    t.add_row({r.name, Table::num(to_ms(r.metrics.latency.mean()), 1),
               Table::num(to_ms(r.metrics.latency.p95()), 1),
               Table::num(to_ms(r.metrics.latency.p99()), 1),
               Table::num(r.metrics.deadline_satisfaction, 3),
               Table::num(static_cast<std::int64_t>(r.reopt_times.size()))});
  }
  std::printf("%s\n", t.to_string().c_str());

  for (const auto& r : runs) {
    if (r.reopt_times.empty()) continue;
    std::printf("%s re-optimized at:", r.name);
    for (double ts : r.reopt_times) std::printf(" %.0fs", ts);
    std::printf("\n");
  }
  return 0;
}
