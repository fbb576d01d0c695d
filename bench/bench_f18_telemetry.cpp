// F18 — Control under imperfect telemetry: the measurement path between the
// cluster and the controller is impaired (reporting delay, report loss,
// multiplicative noise, liveness misreads) while a modest server-churn
// process runs underneath. Sweeps telemetry quality from clean to badly
// degraded and compares the hardened online controller (sanitizer +
// watchdog + plan validation) against the naive online controller
// (transparent robustness defaults — believes every reading immediately)
// and a static joint plan that never reacts at all. All schemes see the
// identical fault script, arrival seed, and channel seed, so every gap is
// attributable to how the controller treats what it is told.

#include <limits>

#include "bench_common.hpp"
#include "core/online.hpp"
#include "util/rng.hpp"

using namespace scalpel;

namespace {

struct Impairment {
  const char* label;
  TelemetryChannelOptions channel;
};

Impairment impairment_level(double q) {
  Impairment imp;
  imp.label = "";
  imp.channel.delay = 1.5 * q;
  imp.channel.drop_prob = 0.4 * q;
  imp.channel.noise_sigma = 0.5 * q;
  imp.channel.flip_prob = 0.25 * q;
  return imp;
}

struct Row {
  std::string scheme;
  SimMetrics m;
  std::size_t reoptimizations = 0;
  std::size_t failovers = 0;
  std::size_t telemetry_rejected = 0;
  std::size_t solver_timeouts = 0;
  std::size_t plans_rejected = 0;
  std::size_t fallbacks = 0;
};

Row run_scheme(const ProblemInstance& instance, const ClusterTopology& topo,
               const std::string& scheme, const FaultSchedule& schedule,
               const TelemetryChannelOptions& channel, double horizon) {
  const bool online = scheme != "static joint";
  const Decision initial = bench::run_scheme(instance, "joint");

  Simulator::Options opts;
  opts.horizon = horizon;
  opts.warmup = 5.0;
  opts.seed = 61;
  opts.faults.schedule = schedule;
  opts.faults.policy = FaultPolicy::RetryOffload;
  opts.faults.max_retries = 20;
  opts.faults.retry_backoff = 0.25;
  opts.faults.retry_timeout = 15.0;
  opts.telemetry = channel;
  if (online) opts.control_interval = 0.5;

  OnlineController::Options copts;
  copts.joint = bench::joint_opts();
  if (scheme == "hardened online") {
    copts.robustness.sanitizer.max_age = 4.0;
    copts.robustness.sanitizer.outlier_band = 0.6;
    copts.robustness.sanitizer.median_window = 5;
    copts.robustness.sanitizer.confirm_windows = 2;
    copts.robustness.sanitizer.flap_threshold = 3;
    copts.robustness.sanitizer.flap_hold = 4;
    copts.robustness.solve_budget_seconds = 0.5;
  }
  // "naive online" keeps the transparent defaults: every reading believed,
  // no watchdog — the pre-hardening controller.

  OnlineController controller(topo, copts);
  Simulator sim(instance, initial, opts);
  if (online) {
    sim.set_controller(controller.callback());
  }

  Row r;
  r.scheme = scheme;
  r.m = sim.run();
  if (online) {
    r.reoptimizations = controller.reoptimizations();
    r.failovers = controller.failovers();
    r.telemetry_rejected = controller.telemetry_rejections();
    r.solver_timeouts = controller.solver_timeouts();
    r.plans_rejected = controller.plans_rejected();
    r.fallbacks = controller.fallbacks();
  }

  // Whatever the channel lied about, the simulated world stays conserved:
  // every arrival is terminal or live, exactly once.
  SCALPEL_REQUIRE(r.m.arrived == r.m.completed_all + r.m.failed_all +
                                     r.m.shed_all + r.m.in_flight_end,
                  "conservation violated under impaired telemetry");
  return r;
}

}  // namespace

int main() {
  bench::banner("F18", "Deadline satisfaction under imperfect telemetry");
  const auto topo = clusters::small_lab();
  const ProblemInstance instance(topo);
  const double horizon = 80.0;

  std::printf(
      "channel model: reporting delay 1.5q s, report loss 0.4q, lognormal\n"
      "bandwidth noise sigma 0.5q, liveness misread prob 0.25q, for quality\n"
      "knob q swept below; server churn underneath (MTBF 20 s, MTTR 4 s);\n"
      "identical fault script + arrival seed + channel seed per scheme.\n"
      "hardened = staleness holds, outlier rejection, liveness debounce,\n"
      "flap freeze, 0.5 s solver watchdog; naive = believes every reading.\n\n");

  const Rng fault_rng(7100);
  const auto schedule = FaultSchedule::exponential_servers(
      topo.servers().size(), 20.0, 4.0, horizon, fault_rng);

  const std::vector<std::string> schemes = {"hardened online", "naive online",
                                            "static joint"};
  for (const double q : {0.0, 0.25, 0.5, 1.0}) {
    const Impairment imp = impairment_level(q);
    std::printf("-- telemetry quality q = %.2f --\n", q);
    Table t({"scheme", "deadline sat.", "availability", "p99 ms", "reopt",
             "failovers", "telem rej", "wd trips", "plan rej", "fallbacks"});
    double hardened_sat = -1.0;
    double naive_sat = -1.0;
    for (const auto& scheme : schemes) {
      const Row r =
          run_scheme(instance, topo, scheme, schedule, imp.channel, horizon);
      if (scheme == "hardened online") hardened_sat = r.m.deadline_satisfaction;
      if (scheme == "naive online") naive_sat = r.m.deadline_satisfaction;
      t.add_row({r.scheme, Table::num(r.m.deadline_satisfaction, 3),
                 Table::num(r.m.availability, 3), bench::fmt_ms(r.m.latency.p99()),
                 Table::num(static_cast<std::int64_t>(r.reoptimizations)),
                 Table::num(static_cast<std::int64_t>(r.failovers)),
                 Table::num(static_cast<std::int64_t>(r.telemetry_rejected)),
                 Table::num(static_cast<std::int64_t>(r.solver_timeouts)),
                 Table::num(static_cast<std::int64_t>(r.plans_rejected)),
                 Table::num(static_cast<std::int64_t>(r.fallbacks))});
    }
    std::printf("%s\n", t.to_string().c_str());

    // The acceptance bar for this figure: hardening never costs deadline
    // satisfaction — not on clean telemetry (transparent defaults), not at
    // any impairment level.
    if (hardened_sat + 1e-9 < naive_sat) {
      std::printf("!! hardened %.4f < naive %.4f at q=%.2f\n", hardened_sat,
                  naive_sat, q);
    }
    SCALPEL_REQUIRE(hardened_sat + 1e-9 >= naive_sat,
                    "hardened controller lost to naive at this sweep point");
  }

  std::printf(
      "Expected shape: at q = 0 hardened and naive coincide (the sanitizer\n"
      "and watchdog are transparent on clean telemetry) and both beat the\n"
      "static plan by failing over around real outages. As q grows the\n"
      "naive controller chases noise and phantom liveness flips — spurious\n"
      "re-solves and failovers onto wrong beliefs — and falls below even\n"
      "the static plan. The hardened controller filters most of it (its\n"
      "failover count stays near the true outage count at every q) and\n"
      "holds strictly above naive at every sweep point, though badly\n"
      "degraded telemetry still costs it ground against static: filtering\n"
      "recovers trust, not information.\n");
  return 0;
}
