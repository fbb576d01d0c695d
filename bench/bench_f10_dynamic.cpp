// F10 — Online adaptation under bandwidth dynamics: a Gilbert (good/bad)
// uplink trace drives the DES; the static joint decision is compared with
// the hysteresis-gated online controller re-optimizing as conditions drift.

#include "bench_common.hpp"
#include "core/online.hpp"
#include "util/rng.hpp"

using namespace scalpel;

int main() {
  bench::banner("F10", "Online adaptation under bandwidth dynamics");
  const auto topo = clusters::small_lab();
  const ProblemInstance instance(topo);
  const double good = topo.cell(0).bandwidth;

  Rng rng(31);
  const auto trace =
      BandwidthTrace::gilbert(good, mbps(18.0), 20.0, 12.0, 120.0, rng);
  std::printf("trace: Gilbert good=%.0f Mbps / bad=%.0f Mbps, mean hold "
              "20s/12s, horizon 120s, %zu transitions\n\n",
              good * 8 / 1e6, 18.0, trace.segments().size());

  const auto static_decision = bench::run_scheme(instance, "joint");

  auto run = [&](bool adaptive) {
    Simulator::Options opts;
    opts.horizon = 120.0;
    opts.warmup = 5.0;
    opts.seed = 37;
    if (adaptive) opts.control_interval = 5.0;
    Simulator sim(instance, static_decision, opts);
    sim.set_cell_trace(0, trace);
    std::size_t reopts = 0;
    OnlineController::Options copts;
    copts.joint = bench::joint_opts();
    OnlineController controller(topo, copts);
    if (adaptive) {
      sim.set_controller([&, tick = controller.callback()](Observation o) {
        o.offered_rate.clear();  // liveness and bandwidth only: no load signals
        o.queue_depth.clear();
        ControlAction a = tick(o);
        if (a.decision) ++reopts;
        return a;
      });
    }
    auto m = sim.run();
    return std::make_pair(m, reopts);
  };

  const auto [static_m, r0] = run(false);
  const auto [adaptive_m, r1] = run(true);

  Table t({"scheme", "mean ms", "p95 ms", "p99 ms", "deadline sat.",
           "re-optimizations"});
  t.add_row({"static joint", Table::num(to_ms(static_m.latency.mean()), 2),
             Table::num(to_ms(static_m.latency.p95()), 2),
             Table::num(to_ms(static_m.latency.p99()), 2),
             Table::num(static_m.deadline_satisfaction, 3), "0"});
  t.add_row({"online (hysteresis 25%)",
             Table::num(to_ms(adaptive_m.latency.mean()), 2),
             Table::num(to_ms(adaptive_m.latency.p95()), 2),
             Table::num(to_ms(adaptive_m.latency.p99()), 2),
             Table::num(adaptive_m.deadline_satisfaction, 3),
             Table::num(static_cast<std::int64_t>(r1))});
  std::printf("%s\n", t.to_string().c_str());
  std::printf("Expected shape: comparable means, but the online controller\n"
              "cuts the tail (p95/p99) and deadline misses during bad-state\n"
              "episodes by re-cutting models deeper.\n");
  return 0;
}
