#include "core/telemetry.hpp"

#include <gtest/gtest.h>

#include "core/joint.hpp"
#include "core/validate.hpp"
#include "edge/builders.hpp"
#include "util/assert.hpp"

namespace scalpel {
namespace {

// A *measured* observation: fresh channel metadata attached, so the trust
// policy engages. Observations without metadata are ground truth (no
// channel in the loop) and bypass the policy entirely — see
// GroundTruthBypassesTrustPolicy.
Observation obs(std::vector<double> bw, std::vector<bool> alive) {
  Observation o;
  o.bw_fresh.assign(bw.size(), true);
  o.bw_age.assign(bw.size(), 0.0);
  o.alive_fresh.assign(alive.size(), true);
  o.cell_bandwidth = std::move(bw);
  o.server_alive = std::move(alive);
  return o;
}

TEST(Sanitizer, TransparentDefaultsChangeNothing) {
  TelemetrySanitizer san(SanitizerOptions{}, 2, 2);
  for (int i = 0; i < 5; ++i) {
    auto o = obs({100.0 + i, 50.0}, {true, i % 2 == 0});
    const auto before = o;
    const auto rep = san.apply(o);
    EXPECT_FALSE(rep.any());
    EXPECT_EQ(o.cell_bandwidth, before.cell_bandwidth);
    // confirm_windows = 1: every liveness flip believed immediately.
    EXPECT_EQ(o.server_alive, before.server_alive);
  }
}

TEST(Sanitizer, StaleReadingHeldAtLastGood) {
  SanitizerOptions so;
  so.max_age = 5.0;
  TelemetrySanitizer san(so, 1, 0);
  auto fresh = obs({100.0}, {});
  EXPECT_FALSE(san.apply(fresh).any());

  auto stale = obs({42.0}, {});
  stale.bw_fresh = {false};
  stale.bw_age = {12.0};
  const auto rep = san.apply(stale);
  EXPECT_EQ(rep.stale_held, 1u);
  EXPECT_DOUBLE_EQ(stale.cell_bandwidth[0], 100.0);
}

TEST(Sanitizer, DroppedReadingWithinTrustWindowPassesQuietly) {
  SanitizerOptions so;
  so.max_age = 5.0;
  TelemetrySanitizer san(so, 1, 0);
  auto fresh = obs({100.0}, {});
  san.apply(fresh);
  // A drop repeats the last delivery; while young it is already the
  // believed value, so there is nothing to reject.
  auto dropped = obs({100.0}, {});
  dropped.bw_fresh = {false};
  dropped.bw_age = {2.0};
  EXPECT_FALSE(san.apply(dropped).any());
}

TEST(Sanitizer, OutlierRejectedThenCapitulates) {
  SanitizerOptions so;
  so.outlier_band = 0.5;
  so.median_window = 3;
  TelemetrySanitizer san(so, 1, 0);
  for (int i = 0; i < 3; ++i) {
    auto o = obs({100.0}, {});
    EXPECT_FALSE(san.apply(o).any());
  }
  // |500 - 100| > 0.5 * 100: rejected, held at the reference, three times.
  for (int i = 0; i < 3; ++i) {
    auto spike = obs({500.0}, {});
    const auto rep = san.apply(spike);
    EXPECT_EQ(rep.outliers_rejected, 1u);
    EXPECT_DOUBLE_EQ(spike.cell_bandwidth[0], 100.0);
  }
  // The fourth consecutive "outlier" exceeds the distrust limit of three: a
  // level shift, not noise — the sanitizer capitulates and accepts the new
  // reality.
  auto shift = obs({500.0}, {});
  const auto rep = san.apply(shift);
  EXPECT_EQ(rep.outliers_rejected, 0u);
  EXPECT_DOUBLE_EQ(shift.cell_bandwidth[0], 500.0);
}

TEST(Sanitizer, ConfirmWindowsDebounceLivenessFlips) {
  SanitizerOptions so;
  so.confirm_windows = 2;
  TelemetrySanitizer san(so, 0, 1);
  auto blip = obs({}, {false});
  const auto rep = san.apply(blip);
  EXPECT_EQ(rep.flips_deferred, 1u);
  EXPECT_TRUE(blip.server_alive[0]) << "one reading is not yet believed";
  EXPECT_TRUE(san.believed_alive()[0]);

  auto confirm = obs({}, {false});
  EXPECT_FALSE(san.apply(confirm).any());
  EXPECT_FALSE(confirm.server_alive[0]) << "second consecutive reading flips";
  EXPECT_FALSE(san.believed_alive()[0]);
}

TEST(Sanitizer, ContradictedFlipStreakResets) {
  SanitizerOptions so;
  so.confirm_windows = 2;
  TelemetrySanitizer san(so, 0, 1);
  auto down = obs({}, {false});
  san.apply(down);
  auto up = obs({}, {true});  // contradiction: streak resets
  EXPECT_FALSE(san.apply(up).any());
  auto down2 = obs({}, {false});
  EXPECT_EQ(san.apply(down2).flips_deferred, 1u);
  EXPECT_TRUE(down2.server_alive[0]) << "streak restarted from zero";
}

TEST(Sanitizer, FlappingServerFreezesUntilStable) {
  SanitizerOptions so;
  so.flap_threshold = 2;
  so.flap_hold = 3;
  TelemetrySanitizer san(so, 0, 1);

  auto down = obs({}, {false});
  EXPECT_FALSE(san.apply(down).any());
  EXPECT_FALSE(san.believed_alive()[0]);

  // Second transition inside the window trips the flap detector: the belief
  // freezes at "down" instead of following the blink back up.
  auto up = obs({}, {true});
  EXPECT_EQ(san.apply(up).flaps_suppressed, 1u);
  EXPECT_FALSE(up.server_alive[0]);

  // Readings that keep blinking while frozen are suppressed, not believed;
  // alternation resets the stability streak so nothing unfreezes.
  for (const bool raw : {true, false, true, false}) {
    auto blink = obs({}, {raw});
    const auto rep = san.apply(blink);
    EXPECT_EQ(rep.flaps_suppressed, raw ? 1u : 0u);
    EXPECT_FALSE(blink.server_alive[0]);
  }

  // flap_hold consecutive *self-consistent* readings unfreeze and are
  // adopted — here they happen to agree with the frozen belief.
  for (int i = 0; i < 3; ++i) {
    auto agree = obs({}, {false});
    EXPECT_FALSE(san.apply(agree).any());
  }
  // Unfrozen: a (single) flip is believed again.
  auto recover = obs({}, {true});
  EXPECT_FALSE(san.apply(recover).any());
  EXPECT_TRUE(san.believed_alive()[0]);
}

TEST(Sanitizer, FrozenWrongBeliefRecoversFromStableTruth) {
  SanitizerOptions so;
  so.flap_threshold = 3;
  so.flap_hold = 3;
  TelemetrySanitizer san(so, 0, 1);

  // Blink down-up-down: the third transition trips the detector mid-blink,
  // freezing the belief at "up" — while the server is actually down.
  for (const bool raw : {false, true, false}) {
    auto o = obs({}, {raw});
    san.apply(o);
  }
  EXPECT_TRUE(san.believed_alive()[0]);

  // A real outage now speaks with one voice. The stable "down" stream must
  // unfreeze the belief and be adopted — not be suppressed forever for
  // disagreeing with the frozen state.
  for (int i = 0; i < 3; ++i) {
    auto o = obs({}, {false});
    san.apply(o);
  }
  EXPECT_FALSE(san.believed_alive()[0]);
  auto confirm = obs({}, {false});
  EXPECT_FALSE(san.apply(confirm).any());
  EXPECT_FALSE(confirm.server_alive[0]);
}

TEST(Sanitizer, DroppedLivenessKeepsBelief) {
  TelemetrySanitizer san(SanitizerOptions{}, 0, 1);
  auto down = obs({}, {false});
  san.apply(down);
  auto dropped = obs({}, {true});
  dropped.alive_fresh = {false};
  EXPECT_FALSE(san.apply(dropped).any());
  EXPECT_FALSE(dropped.server_alive[0]) << "a drop is not evidence of life";
}

TEST(Sanitizer, GroundTruthBypassesTrustPolicy) {
  SanitizerOptions so;
  so.outlier_band = 0.2;
  so.median_window = 1;
  so.confirm_windows = 3;
  so.flap_threshold = 2;
  TelemetrySanitizer san(so, 1, 1);

  // No freshness/age metadata: nothing measured these values through a
  // channel that can lie, so even hardened options believe them as-is —
  // a 10x bandwidth shift and a liveness flip land on the first reading.
  Observation o;
  o.cell_bandwidth = {100.0};
  o.server_alive = {true};
  EXPECT_FALSE(san.apply(o).any());

  Observation shifted;
  shifted.cell_bandwidth = {1000.0};
  shifted.server_alive = {false};
  EXPECT_FALSE(san.apply(shifted).any());
  EXPECT_DOUBLE_EQ(shifted.cell_bandwidth[0], 1000.0);
  EXPECT_FALSE(shifted.server_alive[0]);
  EXPECT_FALSE(san.believed_alive()[0]);
}

TEST(Sanitizer, RequiresFullCoverage) {
  TelemetrySanitizer san(SanitizerOptions{}, 2, 1);
  auto short_obs = obs({1.0}, {true});
  EXPECT_THROW(san.apply(short_obs), ContractViolation);
  auto extra_servers = obs({1.0, 1.0}, {true, true});
  EXPECT_THROW(san.apply(extra_servers), ContractViolation);
}

TEST(Sanitizer, RejectsNonsenseOptions) {
  SanitizerOptions bad;
  bad.max_age = 0.0;
  EXPECT_THROW(TelemetrySanitizer(bad, 1, 1), ContractViolation);
  bad = SanitizerOptions{};
  bad.confirm_windows = 0;
  EXPECT_THROW(TelemetrySanitizer(bad, 1, 1), ContractViolation);
  bad = SanitizerOptions{};
  bad.median_window = 0;
  EXPECT_THROW(TelemetrySanitizer(bad, 1, 1), ContractViolation);
}

TEST(SanitizeReportTest, SummaryIsOneAuditLine) {
  SanitizeReport rep;
  rep.stale_held = 1;
  rep.outliers_rejected = 2;
  rep.flaps_suppressed = 3;
  EXPECT_TRUE(rep.any());
  EXPECT_EQ(rep.summary(), "stale=1 outlier=2 deferred=0 flap=3");
  EXPECT_FALSE(SanitizeReport{}.any());
}

// --- validate_plan -------------------------------------------------------

JointOptions fast_joint() {
  JointOptions jo;
  jo.max_iterations = 2;
  jo.dp_coverage_bins = 40;
  jo.theta_grid = {0.0, 0.3, 0.6};
  return jo;
}

struct ValidateFixture : ::testing::Test {
  ValidateFixture()
      : instance(clusters::small_lab()),
        decision(JointOptimizer(fast_joint()).optimize(instance)) {}
  ProblemInstance instance;
  Decision decision;
};

TEST_F(ValidateFixture, AcceptsTheSolverOutput) {
  const auto v = validate_plan(instance, decision, {});
  EXPECT_TRUE(v.ok) << v.reason;
  // Explicit all-alive vector is equivalent to the empty default.
  EXPECT_TRUE(validate_plan(instance, decision, {true, true}).ok);
}

TEST_F(ValidateFixture, RejectsArityMismatch) {
  decision.per_device.pop_back();
  const auto v = validate_plan(instance, decision, {});
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.reason.find("devices"), std::string::npos);
}

TEST_F(ValidateFixture, RejectsUnknownAndDeadServers) {
  Decision unknown = decision;
  bool mutated = false;
  for (auto& dd : unknown.per_device) {
    if (dd.plan.device_only) continue;
    dd.server = 9;
    mutated = true;
    break;
  }
  ASSERT_TRUE(mutated) << "small_lab joint plan should offload something";
  EXPECT_FALSE(validate_plan(instance, unknown, {}).ok);

  // Find a server actually used and declare it dead.
  int used = -1;
  for (const auto& dd : decision.per_device) {
    if (!dd.plan.device_only) {
      used = dd.server;
      break;
    }
  }
  ASSERT_GE(used, 0);
  std::vector<bool> alive(instance.topology().servers().size(), true);
  alive[static_cast<std::size_t>(used)] = false;
  const auto v = validate_plan(instance, decision, alive);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.reason.find("dead server"), std::string::npos);
}

TEST_F(ValidateFixture, RejectsBadShareAndBandwidth) {
  Decision bad = decision;
  for (auto& dd : bad.per_device) {
    if (dd.plan.device_only) continue;
    dd.compute_share = 1.5;
    break;
  }
  EXPECT_FALSE(validate_plan(instance, bad, {}).ok);

  bad = decision;
  for (auto& dd : bad.per_device) {
    if (dd.plan.device_only) continue;
    dd.bandwidth = 0.0;
    break;
  }
  EXPECT_FALSE(validate_plan(instance, bad, {}).ok);
}

TEST_F(ValidateFixture, RejectsOversubscribedServerAndCell) {
  Decision bad = decision;
  // Pile every offloading device onto one server with a large share each:
  // the per-server sum check must fire even though each share is legal.
  std::size_t offloaders = 0;
  for (auto& dd : bad.per_device) {
    if (dd.plan.device_only) continue;
    dd.server = 0;
    dd.compute_share = 0.9;
    ++offloaders;
  }
  if (offloaders >= 2) {
    const auto v = validate_plan(instance, bad, {});
    EXPECT_FALSE(v.ok);
    EXPECT_NE(v.reason.find("sum"), std::string::npos);
  }

  bad = decision;
  const double cap = instance.topology().cell(0).bandwidth;
  for (auto& dd : bad.per_device) {
    if (dd.plan.device_only) continue;
    dd.bandwidth = cap * 2.0;
    break;
  }
  const auto v = validate_plan(instance, bad, {});
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.reason.find("capacity"), std::string::npos);
}

TEST_F(ValidateFixture, AccuracyFloorIsOptIn) {
  Decision bad = decision;
  ASSERT_FALSE(bad.predicted.empty());
  for (auto& p : bad.predicted) p.expected_accuracy = 0.0;
  // Default: accuracy is advisory (the ladder lowers floors on purpose).
  EXPECT_TRUE(validate_plan(instance, bad, {}).ok);
}

TEST_F(ValidateFixture, DeviceOnlyPlansAreAlwaysRoutable) {
  for (auto& dd : decision.per_device) {
    dd.plan.device_only = true;
    dd.server = -1;
    dd.compute_share = 0.0;
    dd.bandwidth = 0.0;
  }
  // No liveness vector can strand a device-only plan — even all-dead.
  EXPECT_TRUE(validate_plan(instance, decision, {false, false}).ok);
}

}  // namespace
}  // namespace scalpel
