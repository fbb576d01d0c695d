#include "core/online.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/serialize.hpp"
#include "edge/builders.hpp"
#include "util/assert.hpp"
#include "util/json.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

/// Builds the Observation the controller sees: bandwidths, liveness (every
/// server up when omitted) and, optionally, the per-device load signals.
bool observe(OnlineController& ctl, std::vector<double> bw,
             std::vector<bool> alive = {}, std::vector<double> offered = {},
             std::vector<double> depth = {}) {
  Observation o;
  o.cell_bandwidth = std::move(bw);
  o.server_alive =
      alive.empty()
          ? std::vector<bool>(ctl.instance().topology().servers().size(), true)
          : std::move(alive);
  o.offered_rate = std::move(offered);
  o.queue_depth = std::move(depth);
  return ctl.observe(o);
}

OnlineController::Options fast_opts(double hysteresis = 0.25) {
  OnlineController::Options o;
  o.hysteresis = hysteresis;
  o.joint.max_iterations = 2;
  o.joint.dp_coverage_bins = 40;
  o.joint.theta_grid = {0.0, 0.3, 0.6};
  return o;
}

TEST(Online, SolvesLazilyOnFirstAccess) {
  OnlineController ctl(clusters::small_lab(), fast_opts());
  EXPECT_EQ(ctl.reoptimizations(), 0u);
  const auto& d = ctl.decision();
  EXPECT_EQ(d.per_device.size(), 4u);
  EXPECT_EQ(ctl.reoptimizations(), 0u);  // initial solve is not a re-opt
}

TEST(Online, SmallDriftIgnored) {
  OnlineController ctl(clusters::small_lab(), fast_opts(0.25));
  ctl.decision();
  const double base = clusters::small_lab().cell(0).bandwidth;
  EXPECT_FALSE(observe(ctl, {base * 1.1}));
  EXPECT_FALSE(observe(ctl, {base * 0.9}));
  EXPECT_EQ(ctl.reoptimizations(), 0u);
}

TEST(Online, LargeDriftTriggersReoptimization) {
  OnlineController ctl(clusters::small_lab(), fast_opts(0.25));
  ctl.decision();
  const double base = clusters::small_lab().cell(0).bandwidth;
  EXPECT_TRUE(observe(ctl, {base * 0.4}));
  EXPECT_EQ(ctl.reoptimizations(), 1u);
  // The instance now reflects the observed bandwidth.
  EXPECT_NEAR(ctl.instance().topology().cell(0).bandwidth, base * 0.4, 1e-6);
  // Observing the same value again is within hysteresis of the new solve.
  EXPECT_FALSE(observe(ctl, {base * 0.4}));
}

TEST(Online, DecisionAdaptsToBandwidthCollapse) {
  OnlineController ctl(clusters::small_lab(), fast_opts(0.1));
  const auto before = ctl.decision();
  double offload_before = 0.0;
  for (const auto& p : before.predicted) offload_before += p.offload_prob;
  // Collapse the uplink to 2 Mbps: offloading must shrink.
  observe(ctl, {mbps(2.0)});
  const auto after = ctl.decision();
  double offload_after = 0.0;
  for (const auto& p : after.predicted) offload_after += p.offload_prob;
  EXPECT_LT(offload_after, offload_before);
}

TEST(Online, ValidatesObservationArity) {
  OnlineController ctl(clusters::small_lab(), fast_opts());
  EXPECT_THROW(observe(ctl, {1.0, 2.0}), ContractViolation);
  EXPECT_THROW(observe(ctl, {0.0}), ContractViolation);
}

TEST(Online, ValidatesLivenessArity) {
  const auto topo = clusters::small_lab();  // 1 cell, 2 servers
  OnlineController ctl(topo, fast_opts());
  const std::vector<double> bw = {topo.cell(0).bandwidth};
  EXPECT_THROW(observe(ctl, bw, {true}), ContractViolation);
  EXPECT_THROW(observe(ctl, bw, {true, true, true}), ContractViolation);
  EXPECT_NO_THROW(observe(ctl, bw, {true, true}));
}

TEST(Online, DeadServerExcludedFromAssignment) {
  // small_lab has 2 servers; kill server 0 and every offloaded device must
  // land on server 1, with a failover recorded.
  const auto topo = clusters::small_lab();
  OnlineController ctl(topo, fast_opts());
  ctl.decision();
  const std::vector<double> bw = {topo.cell(0).bandwidth};
  EXPECT_TRUE(observe(ctl, bw, {false, true}));
  EXPECT_EQ(ctl.failovers(), 1u);
  const auto& d = ctl.decision();
  bool any_offload = false;
  for (const auto& dd : d.per_device) {
    if (dd.plan.device_only) continue;
    any_offload = true;
    EXPECT_EQ(dd.server, 1);
  }
  // The surviving T4 still beats pure on-device execution for this lab.
  EXPECT_TRUE(any_offload);
}

TEST(Online, AllServersDeadFallsBackToDeviceOnly) {
  const auto topo = clusters::small_lab();
  OnlineController ctl(topo, fast_opts());
  const std::vector<double> bw = {topo.cell(0).bandwidth};
  EXPECT_TRUE(observe(ctl, bw, {false, false}));
  const auto& d = ctl.decision();
  EXPECT_EQ(d.scheme, "device_fallback");
  for (const auto& dd : d.per_device) {
    EXPECT_TRUE(dd.plan.device_only);
  }
  // Degraded, never crashed: the decision is still fully evaluated.
  EXPECT_EQ(d.predicted.size(), d.per_device.size());
}

TEST(Online, RecoveryRestoresOffloading) {
  const auto topo = clusters::small_lab();
  OnlineController ctl(topo, fast_opts());
  const std::vector<double> bw = {topo.cell(0).bandwidth};
  ASSERT_TRUE(observe(ctl, bw, {false, false}));
  for (const auto& dd : ctl.decision().per_device) {
    ASSERT_TRUE(dd.plan.device_only);
  }
  // Both servers come back: the controller must re-solve and offload again.
  EXPECT_TRUE(observe(ctl, bw, {true, true}));
  bool any_offload = false;
  for (const auto& dd : ctl.decision().per_device) {
    if (!dd.plan.device_only) any_offload = true;
  }
  EXPECT_TRUE(any_offload);
  EXPECT_GE(ctl.failovers(), 2u);
}

constexpr std::size_t kTrigger = OnlineController::kTriggerWindows;
constexpr std::size_t kRecovery = OnlineController::kRecoveryWindows;

std::vector<double> lab_bw() {
  return {clusters::small_lab().cell(0).bandwidth};
}

TEST(Online, LadderIsMonotone) {
  OnlineController ctl(clusters::small_lab(), fast_opts());
  const std::vector<double> zeros(4, 0.0);
  observe(ctl, lab_bw(), {true, true}, zeros, zeros);
  const auto& ladder = ctl.ladder();
  ASSERT_GE(ladder.size(), 2u);
  EXPECT_EQ(ctl.current_rung(), 0u);
  for (std::size_t k = 1; k < ladder.size(); ++k) {
    EXPECT_LE(ladder[k].predicted_accuracy,
              ladder[k - 1].predicted_accuracy + 1e-9);
    ASSERT_EQ(ladder[k].sustainable.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_GE(ladder[k].sustainable[i],
                ladder[k - 1].sustainable[i] - 1e-9);
    }
  }
  // Lower rungs buy real capacity somewhere, not just lower accuracy.
  double gain = 0.0;
  for (std::size_t i = 0; i < 4; ++i) {
    gain = std::max(gain, ladder.back().sustainable[i] -
                              ladder.front().sustainable[i]);
  }
  EXPECT_GT(gain, 0.0);
}

// A partition-only controller (enable_exits = false) keeps its rungs
// partition-only: the ladder's DP takes its exit bound from the same
// options mapping as the surgery step, so lowering the floor never enables
// an exit.
TEST(Online, PartitionOnlyLadderEnablesNoExit) {
  const ProblemInstance lab(clusters::small_lab());
  JointOptions o = fast_opts().joint;
  o.enable_exits = false;
  const Decision base = JointOptimizer(o).optimize(lab);
  const std::vector<LadderRung> ladder = build_degradation_ladder(lab, base, o);
  ASSERT_GE(ladder.size(), 2u);
  for (std::size_t k = 0; k < ladder.size(); ++k) {
    for (std::size_t i = 0; i < ladder[k].plans.size(); ++i) {
      EXPECT_TRUE(ladder[k].plans[i].policy.exits.empty())
          << "rung " << k << " device " << i;
    }
  }
}

TEST(Online, SustainedOverloadWalksDownLadderThenThrottles) {
  OnlineController ctl(clusters::small_lab(), fast_opts());
  const std::vector<double> bw = lab_bw();
  const std::vector<double> flood(4, 1e4);
  const std::vector<double> zeros(4, 0.0);
  observe(ctl, bw, {true, true}, zeros, zeros);
  const std::size_t bottom = ctl.ladder().size() - 1;

  // kTrigger overloaded windows per step-down, then kTrigger more to engage
  // the gate.
  for (std::size_t w = 0; w < kTrigger * (bottom + 1); ++w) {
    observe(ctl, bw, {true, true}, flood, zeros);
  }
  EXPECT_EQ(ctl.current_rung(), bottom);
  EXPECT_EQ(ctl.degradations(), bottom);
  EXPECT_EQ(ctl.throttle_activations(), 1u);
  ASSERT_EQ(ctl.admit_fraction().size(), 4u);
  for (const double f : ctl.admit_fraction()) {
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    EXPECT_LT(f, 0.5);  // flood is far beyond any rung's capacity
  }
  // The active decision runs the bottom rung's plans.
  EXPECT_EQ(ctl.decision().per_device.size(), 4u);
}

TEST(Online, RecoveryUnwindsGateFirstThenRungs) {
  OnlineController ctl(clusters::small_lab(), fast_opts());
  const std::vector<double> bw = lab_bw();
  const std::vector<double> flood(4, 1e4);
  const std::vector<double> zeros(4, 0.0);
  observe(ctl, bw, {true, true}, zeros, zeros);
  const std::size_t bottom = ctl.ladder().size() - 1;
  for (std::size_t w = 0; w < kTrigger * (bottom + 1); ++w) {
    observe(ctl, bw, {true, true}, flood, zeros);
  }
  ASSERT_FALSE(ctl.admit_fraction().empty());

  // Calm traffic: the gate clears before any rung climbs, then the ladder
  // unwinds one rung per recovery streak until the base plan is back.
  for (std::size_t w = 0; w < kRecovery; ++w) {
    observe(ctl, bw, {true, true}, zeros, zeros);
  }
  EXPECT_TRUE(ctl.admit_fraction().empty());
  EXPECT_EQ(ctl.current_rung(), bottom);
  for (std::size_t w = 0; w < kRecovery * bottom; ++w) {
    observe(ctl, bw, {true, true}, zeros, zeros);
  }
  EXPECT_EQ(ctl.current_rung(), 0u);
  EXPECT_EQ(ctl.recoveries(), bottom);
}

TEST(Online, BriefSpikesDoNotDegrade) {
  OnlineController ctl(clusters::small_lab(), fast_opts());
  const std::vector<double> bw = lab_bw();
  const std::vector<double> flood(4, 1e4);
  const std::vector<double> zeros(4, 0.0);
  observe(ctl, bw, {true, true}, zeros, zeros);
  // Alternating spike/calm never reaches kTrigger consecutive hits.
  for (int w = 0; w < 6; ++w) {
    observe(ctl, bw, {true, true}, flood, zeros);
    observe(ctl, bw, {true, true}, zeros, zeros);
  }
  EXPECT_EQ(ctl.current_rung(), 0u);
  EXPECT_EQ(ctl.degradations(), 0u);
}

TEST(Online, QueueDepthAloneTriggersDegradation) {
  OnlineController ctl(clusters::small_lab(), fast_opts());
  const std::vector<double> bw = lab_bw();
  const std::vector<double> zeros(4, 0.0);
  std::vector<double> deep(4, 0.0);
  deep[0] = 100.0;  // stale rate estimate, but the backlog is undeniable
  observe(ctl, bw, {true, true}, zeros, zeros);
  for (std::size_t w = 0; w < kTrigger; ++w) {
    observe(ctl, bw, {true, true}, zeros, deep);
  }
  EXPECT_GE(ctl.degradations(), 1u);
}

TEST(Online, ValidatesOverloadObservationArity) {
  OnlineController ctl(clusters::small_lab(), fast_opts());
  const std::vector<double> bw = lab_bw();
  EXPECT_THROW(observe(ctl, bw, {true, true}, {1.0}, {0.0, 0.0, 0.0, 0.0}),
               ContractViolation);
  EXPECT_THROW(observe(ctl, bw, {true, true}, {1.0, 1.0, 1.0, 1.0}, {0.0}),
               ContractViolation);
}

TEST(Online, SustainableRatesSurviveFailover) {
  // Satellite of the overload work: admission control must stay coherent on
  // the liveness-reduced topology after a crash failover.
  OnlineController ctl(clusters::small_lab(), fast_opts());
  ctl.decision();
  ASSERT_TRUE(observe(ctl, lab_bw(), {false, true}));
  const auto& d = ctl.decision();
  for (std::size_t i = 0; i < d.per_device.size(); ++i) {
    const double rate = admission::max_sustainable_rate(
        ctl.instance(), static_cast<DeviceId>(i), d.per_device[i], 0.95);
    EXPECT_GT(rate, 0.0);
  }
  const auto plan = admission::propose_throttle(ctl.instance(), d, 0.9);
  for (const double r : plan.admitted_rate) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
  EXPECT_GT(plan.admitted_fraction, 0.0);
  EXPECT_LE(plan.admitted_fraction, 1.0);
}

TEST(Online, AllDeadFallbackKeepsAdmissionFinite) {
  // Even the device-only fallback must quote finite sustainable rates (no
  // division blow-ups on the degenerate no-server deployment).
  OnlineController ctl(clusters::small_lab(), fast_opts());
  ASSERT_TRUE(observe(ctl, lab_bw(), {false, false}));
  const auto& d = ctl.decision();
  ASSERT_EQ(d.scheme, "device_fallback");
  for (std::size_t i = 0; i < d.per_device.size(); ++i) {
    const double rate = admission::max_sustainable_rate(
        ctl.instance(), static_cast<DeviceId>(i), d.per_device[i], 0.95);
    EXPECT_TRUE(std::isfinite(rate));
    EXPECT_GT(rate, 0.0);
  }
  const auto plan = admission::propose_throttle(ctl.instance(), d, 0.9);
  EXPECT_TRUE(plan.throttled);  // small_lab overloads some device on-device
  for (const double r : plan.admitted_rate) {
    EXPECT_TRUE(std::isfinite(r));
    EXPECT_GT(r, 0.0);
  }
}

// --- robustness: sanitizer wiring, solver watchdog, fallback chain -------

bool audit_has_cause(const DecisionAuditLog& log, AuditCause cause) {
  for (const auto& r : log.records()) {
    if (r.cause == cause) return true;
  }
  return false;
}

TEST(OnlineRobust, ThrowingSolverKeepsLastGoodPlan) {
  int calls = 0;
  auto o = fast_opts();
  o.solver = [&](const ProblemInstance& inst, const JointOptions& jo) {
    if (++calls > 1) throw std::runtime_error("solver exploded");
    return JointOptimizer(jo).optimize(inst);
  };
  OnlineController ctl(clusters::small_lab(), o);
  const Decision before = ctl.decision();
  ASSERT_EQ(calls, 1);

  // Bandwidth *rises* 50%: drift triggers a re-solve, the solver throws,
  // and the last-good plan (still valid under more capacity) survives.
  EXPECT_FALSE(observe(ctl, {lab_bw()[0] * 1.5}));
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(ctl.solver_timeouts(), 1u);
  EXPECT_EQ(ctl.fallbacks(), 1u);
  EXPECT_EQ(ctl.plans_rejected(), 0u);
  EXPECT_EQ(ctl.decision().scheme, before.scheme);
  EXPECT_TRUE(audit_has_cause(ctl.audit_log(), AuditCause::kSolverTimeout));
  EXPECT_TRUE(audit_has_cause(ctl.audit_log(), AuditCause::kFallbackApplied));
}

TEST(OnlineRobust, BudgetOverrunOnFirstSolveDegradesToDeviceOnly) {
  auto o = fast_opts();
  // Sub-nanosecond budget: every real solve overruns. With no last-good
  // plan to keep, the chain must land on device-only, never unroutable.
  o.robustness.solve_budget_seconds = 1e-12;
  OnlineController ctl(clusters::small_lab(), o);
  const auto& d = ctl.decision();
  EXPECT_EQ(d.scheme, "device_fallback");
  for (const auto& dd : d.per_device) EXPECT_TRUE(dd.plan.device_only);
  EXPECT_GE(ctl.solver_timeouts(), 1u);
  EXPECT_EQ(ctl.fallbacks(), 1u);
  EXPECT_TRUE(audit_has_cause(ctl.audit_log(), AuditCause::kSolverTimeout));
}

TEST(OnlineRobust, GarbagePlanIsRejectedBeforeAdoption) {
  int calls = 0;
  auto o = fast_opts();
  o.solver = [&](const ProblemInstance& inst, const JointOptions& jo) {
    Decision d = JointOptimizer(jo).optimize(inst);
    if (++calls > 1) {
      // Point an offloading device at a server that does not exist.
      for (auto& dd : d.per_device) {
        if (dd.plan.device_only) continue;
        dd.server = 99;
        break;
      }
    }
    return d;
  };
  OnlineController ctl(clusters::small_lab(), o);
  const Decision before = ctl.decision();
  EXPECT_FALSE(observe(ctl, {lab_bw()[0] * 1.5}));
  EXPECT_EQ(ctl.plans_rejected(), 1u);
  EXPECT_EQ(ctl.solver_timeouts(), 0u);
  EXPECT_EQ(ctl.fallbacks(), 1u);
  EXPECT_EQ(ctl.decision().scheme, before.scheme);
  EXPECT_TRUE(audit_has_cause(ctl.audit_log(), AuditCause::kPlanRejected));
}

TEST(OnlineRobust, BrokenSolverRetriedEachDriftWindowAndFailoverRepairs) {
  int calls = 0;
  auto o = fast_opts();
  o.solver = [&](const ProblemInstance& inst, const JointOptions& jo) {
    if (++calls > 1) throw std::runtime_error("still broken");
    return JointOptimizer(jo).optimize(inst);
  };
  OnlineController ctl(clusters::small_lab(), o);
  ctl.decision();
  const double base = lab_bw()[0];

  EXPECT_FALSE(observe(ctl, {base * 1.5}));  // trips the watchdog
  ASSERT_EQ(calls, 2);

  // The bandwidth anchor stays stale after a failed solve, so persistent
  // drift re-attempts the solve in every window.
  EXPECT_FALSE(observe(ctl, {base * 2.0}));
  EXPECT_FALSE(observe(ctl, {base * 2.0}));
  EXPECT_EQ(calls, 4);
  EXPECT_EQ(ctl.fallbacks(), 3u);

  // A liveness flip on a server the current plan uses: the (still
  // throwing) solver forces the fallback chain to repair the plan.
  int used = -1;
  for (const auto& dd : ctl.decision().per_device) {
    if (!dd.plan.device_only) {
      used = dd.server;
      break;
    }
  }
  ASSERT_GE(used, 0);
  std::vector<bool> alive = {true, true};
  alive[static_cast<std::size_t>(used)] = false;
  EXPECT_TRUE(observe(ctl, {base * 2.0}, alive));
  EXPECT_EQ(calls, 5);
  EXPECT_EQ(ctl.failovers(), 1u);
  // Nothing may still point at the dead server.
  for (const auto& dd : ctl.decision().per_device) {
    if (!dd.plan.device_only) {
      EXPECT_NE(dd.server, used);
    }
  }
}

TEST(OnlineRobust, FallbackNeverLeavesTasksUnroutable) {
  auto o = fast_opts();
  o.solver = [](const ProblemInstance&,
                const JointOptions&) -> Decision {
    throw std::runtime_error("permanently down");
  };
  OnlineController ctl(clusters::small_lab(), o);
  // Even with the solver dead from the start and every server lost, the
  // controller must produce a complete, evaluated, device-only deployment.
  observe(ctl, lab_bw(), {false, false});
  const auto& d = ctl.decision();
  EXPECT_EQ(d.scheme, "device_fallback");
  ASSERT_EQ(d.per_device.size(), 4u);
  ASSERT_EQ(d.predicted.size(), 4u);
  for (const auto& dd : d.per_device) EXPECT_TRUE(dd.plan.device_only);
  const auto v = validate_plan(ctl.instance(), d, {false, false});
  EXPECT_TRUE(v.ok) << v.reason;
}

TEST(OnlineRobust, SanitizerDefersUnconfirmedFailover) {
  auto o = fast_opts();
  o.robustness.sanitizer.confirm_windows = 2;
  OnlineController ctl(clusters::small_lab(), o);
  ctl.decision();

  // Debounce applies to *measured* liveness (alive_fresh metadata present);
  // a metadata-free observation is ground truth and bypasses it.
  auto measured = [](std::vector<double> bw, std::vector<bool> alive) {
    Observation obs;
    obs.alive_fresh.assign(alive.size(), true);
    obs.cell_bandwidth = std::move(bw);
    obs.server_alive = std::move(alive);
    return obs;
  };

  // One measured "down" reading: deferred, audited, no failover burned.
  EXPECT_FALSE(ctl.observe(measured(lab_bw(), {false, true})));
  EXPECT_EQ(ctl.telemetry_rejections(), 1u);
  EXPECT_EQ(ctl.failovers(), 0u);
  EXPECT_TRUE(
      audit_has_cause(ctl.audit_log(), AuditCause::kTelemetryRejected));

  // The second consecutive reading confirms: now the failover happens.
  EXPECT_TRUE(ctl.observe(measured(lab_bw(), {false, true})));
  EXPECT_EQ(ctl.failovers(), 1u);
}

TEST(OnlineRobust, GroundTruthLivenessBypassesDebounce) {
  auto o = fast_opts();
  o.robustness.sanitizer.confirm_windows = 3;
  o.robustness.sanitizer.flap_threshold = 2;
  OnlineController ctl(clusters::small_lab(), o);
  ctl.decision();

  // No channel metadata: the observation IS the cluster state, so even
  // hardened trust options believe the flip on the first reading.
  EXPECT_TRUE(observe(ctl, lab_bw(), {false, true}));
  EXPECT_EQ(ctl.failovers(), 1u);
  EXPECT_EQ(ctl.telemetry_rejections(), 0u);
}

TEST(OnlineRobust, ObservationTimeAdvancesAuditClock) {
  OnlineController ctl(clusters::small_lab(), fast_opts());
  ctl.decision();
  Observation obs;
  obs.time = 42.0;
  obs.cell_bandwidth = {lab_bw()[0] * 0.4};
  obs.server_alive = {true, true};
  EXPECT_TRUE(ctl.observe(obs));
  EXPECT_DOUBLE_EQ(ctl.audit_log().time(), 42.0);
  EXPECT_DOUBLE_EQ(ctl.audit_log().records().back().time, 42.0);
}

TEST(OnlineRobust, RejectsNonsenseRobustnessOptions) {
  auto o = fast_opts();
  o.robustness.solve_budget_seconds = 0.0;
  EXPECT_THROW(OnlineController(clusters::small_lab(), o),
               ContractViolation);
}

TEST(Online, UnchangedLivenessDoesNotResolve) {
  // Liveness re-solves are edge-triggered: repeating the same alive vector
  // (with steady bandwidth) must not burn another optimization.
  const auto topo = clusters::small_lab();
  OnlineController ctl(topo, fast_opts());
  const std::vector<double> bw = {topo.cell(0).bandwidth};
  EXPECT_TRUE(observe(ctl, bw, {false, true}));
  const auto n = ctl.reoptimizations();
  EXPECT_FALSE(observe(ctl, bw, {false, true}));
  EXPECT_EQ(ctl.reoptimizations(), n);
}

// The engine adapter forwards the decision and the gate together, and only
// on the windows observe() reports as a change.
TEST(OnlineControllerCallback, ForwardsOnlyOnChange) {
  OnlineController ctl(clusters::small_lab(), fast_opts());
  const ObservingController tick = ctl.callback();
  const std::vector<double> flood(4, 1e4);
  const std::vector<double> zeros(4, 0.0);
  auto window = [](std::vector<double> bw, std::vector<double> offered) {
    Observation o;
    o.cell_bandwidth = std::move(bw);
    o.server_alive = {true, true};
    o.offered_rate = std::move(offered);
    o.queue_depth = std::vector<double>(4, 0.0);
    return o;
  };
  auto same_plan = [&ctl](const ControlAction& a) {
    return serialize::to_json(*a.decision).dump() ==
           serialize::to_json(ctl.decision()).dump();
  };
  tick(window(lab_bw(), zeros));  // first solve and ladder

  const ControlAction unchanged = tick(window(lab_bw(), zeros));
  EXPECT_FALSE(unchanged.decision.has_value());
  EXPECT_FALSE(unchanged.admit_fraction.has_value());

  // A re-solve forwards the new plan together with the (open) gate.
  const std::size_t resolves = ctl.reoptimizations();
  const ControlAction resolved = tick(window({lab_bw()[0] * 0.4}, zeros));
  EXPECT_EQ(ctl.reoptimizations(), resolves + 1);
  ASSERT_TRUE(resolved.decision.has_value());
  ASSERT_TRUE(resolved.admit_fraction.has_value());
  EXPECT_TRUE(same_plan(resolved));
  EXPECT_TRUE(resolved.admit_fraction->empty());

  // Sustained overload walks the ladder down to the gate; the window that
  // engages the gate forwards it with the bottom rung's plan.
  ControlAction gated;
  for (std::size_t w = 0; w < 16 && ctl.admit_fraction().empty(); ++w) {
    gated = tick(window({lab_bw()[0] * 0.4}, flood));
  }
  ASSERT_FALSE(ctl.admit_fraction().empty());
  ASSERT_TRUE(gated.decision.has_value());
  ASSERT_TRUE(gated.admit_fraction.has_value());
  EXPECT_TRUE(same_plan(gated));
  EXPECT_EQ(*gated.admit_fraction, ctl.admit_fraction());
}

}  // namespace
}  // namespace scalpel
