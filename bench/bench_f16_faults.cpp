// F16 — Robustness under server churn: an exponential MTBF/MTTR fault
// process knocks edge servers out while inference traffic flows. Sweeps the
// churn rate (MTBF {40,20,10,5} s at MTTR 5 s) and compares the liveness-
// aware online controller against static decisions that never learn a
// server died. All schemes see the identical fault script and arrival seed,
// and run under the same bounded RetryOffload policy, so every gap in the
// table is attributable to (re)decision quality alone.

#include <limits>

#include "bench_common.hpp"
#include "core/online.hpp"
#include "util/rng.hpp"

using namespace scalpel;

namespace {

struct Row {
  std::string scheme;
  SimMetrics m;
  std::size_t failovers = 0;
};

Row run_scheme_under_faults(const ProblemInstance& instance,
                            const ClusterTopology& topo,
                            const std::string& scheme,
                            const FaultSchedule& schedule, double horizon) {
  const bool online = scheme == "online joint";
  const Decision initial =
      bench::run_scheme(instance, online ? "joint" : scheme);

  Simulator::Options opts;
  opts.horizon = horizon;
  opts.warmup = 5.0;
  opts.seed = 41;
  opts.faults.schedule = schedule;
  opts.faults.policy = FaultPolicy::RetryOffload;
  opts.faults.max_retries = 20;
  opts.faults.retry_backoff = 0.25;
  opts.faults.retry_timeout = 15.0;
  if (online) opts.control_interval = 1.0;

  Simulator sim(instance, initial, opts);
  OnlineController::Options copts;
  copts.joint = bench::joint_opts();
  OnlineController controller(topo, copts);
  if (online) {
    sim.set_controller([tick = controller.callback()](Observation o) {
      o.offered_rate.clear();  // liveness and bandwidth only: no load signals
      o.queue_depth.clear();
      return tick(o);
    });
  }
  return Row{scheme, sim.run(), online ? controller.failovers() : 0};
}

}  // namespace

int main() {
  bench::banner("F16", "Graceful degradation under server churn");
  const auto topo = clusters::small_lab();
  const ProblemInstance instance(topo);
  const double horizon = 120.0;
  const double mttr = 5.0;

  std::printf(
      "fault model: per-server exponential MTBF/MTTR renewal process,\n"
      "MTTR fixed at %.0f s; identical script + arrival seed per scheme;\n"
      "RetryOffload policy (<=20 retries, 0.25 s backoff, 15 s budget);\n"
      "failed deadline-bearing tasks count as deadline misses.\n\n",
      mttr);

  const std::vector<std::string> schemes = {"online joint", "joint",
                                            "neurosurgeon", "edge_only"};
  for (const double mtbf : {40.0, 20.0, 10.0, 5.0}) {
    const Rng fault_rng(7000 + static_cast<std::uint64_t>(mtbf));
    const auto schedule = FaultSchedule::exponential_servers(
        topo.servers().size(), mtbf, mttr, horizon, fault_rng);
    std::size_t outages = 0;
    for (const auto& ev : schedule.events()) outages += ev.up ? 0 : 1;
    double avail = 0.0;
    for (std::size_t s = 0; s < topo.servers().size(); ++s) {
      avail += schedule.server_availability(static_cast<std::int32_t>(s),
                                            horizon);
    }
    avail /= static_cast<double>(topo.servers().size());
    std::printf("-- MTBF %.0f s: %zu outages scripted, server availability "
                "%.3f --\n",
                mtbf, outages, avail);

    Table t({"scheme", "deadline sat.", "availability", "failed", "resteered",
             "retried", "p99 ms", "outage p99 ms", "failovers"});
    for (const auto& scheme : schemes) {
      const Row r =
          run_scheme_under_faults(instance, topo, scheme, schedule, horizon);
      t.add_row({r.scheme, Table::num(r.m.deadline_satisfaction, 3),
                 Table::num(r.m.availability, 3),
                 Table::num(static_cast<std::int64_t>(r.m.failed)),
                 Table::num(static_cast<std::int64_t>(r.m.resteered)),
                 Table::num(static_cast<std::int64_t>(r.m.retried)),
                 bench::fmt_ms(r.m.latency.p99()),
                 r.m.outage_latency.empty()
                     ? "-"
                     : bench::fmt_ms(r.m.outage_latency.p99()),
                 Table::num(static_cast<std::int64_t>(r.failovers))});
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  std::printf(
      "Expected shape: static schemes bleed deadline satisfaction as MTBF\n"
      "shrinks — every outage strands their offloaded stream in the retry\n"
      "loop until the server returns. The liveness-aware online controller\n"
      "re-solves around dead servers (device fallback when both are down),\n"
      "holding strictly higher deadline satisfaction at every churn rate.\n");
  return 0;
}
