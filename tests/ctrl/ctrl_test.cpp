// Unit tests for the distributed control plane: the deterministic faulty
// fabric, the coordinator's tatonnement + epoch log, the per-cell
// controller's robustness ladder (epoch guard, staleness discount, autonomy,
// crash/restart replay), and the plane wiring end to end. Most solvers here
// are stubs via the CellControllerOptions::solver seam — those tests pin
// control-plane *protocol* behavior, not optimizer quality. The
// CtrlGolden case and the parallel-solve check run the default solver.

#include "ctrl/plane.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "core/serialize.hpp"
#include "edge/builders.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "oracles/oracles.hpp"
#include "util/json.hpp"

namespace scalpel {
namespace {

bool audit_has_cause(const DecisionAuditLog& log, AuditCause cause) {
  for (const auto& r : log.records()) {
    if (r.cause == cause) return true;
  }
  return false;
}

/// Deterministic stand-in for the joint optimizer on a cell sub-instance:
/// offload every member to the first sub-server with equal shares summing
/// to 0.9 and bandwidth summing to 90% of the uplink — always valid, so
/// tests exercise the protocol around the solver, not the solver.
Decision stub_offload(const ProblemInstance& sub) {
  const auto& topo = sub.topology();
  const std::size_t n = topo.devices().size();
  Decision d;
  d.scheme = "stub";
  d.per_device.resize(n);
  const double bw = topo.cell(0).bandwidth;
  for (auto& dd : d.per_device) {
    dd.plan.partition_after = 0;
    dd.server = 0;
    dd.compute_share = 0.9 / static_cast<double>(n);
    dd.bandwidth = 0.9 * bw / static_cast<double>(n);
  }
  return d;
}

CellControllerOptions stub_cell_opts() {
  CellControllerOptions o;
  o.solver = [](const ProblemInstance& sub, const JointOptions&) {
    return stub_offload(sub);
  };
  return o;
}

ClusterTopology four_cell_campus() {
  clusters::CampusOptions copts;
  copts.num_devices = 8;
  copts.num_servers = 3;
  copts.devices_per_cell = 2;
  copts.seed = 7;
  return clusters::campus(copts);
}

Observation observe_all_up(double t, const ClusterTopology& topo,
                           double bw_scale = 1.0) {
  Observation o;
  o.time = t;
  for (const auto& c : topo.cells()) {
    o.cell_bandwidth.push_back(c.bandwidth * bw_scale);
  }
  o.server_alive.assign(topo.servers().size(), true);
  return o;
}

// --- fabric ---------------------------------------------------------------

TEST(CtrlFabric, PassThroughDeliversSameTickInSendOrder) {
  ControlFabric f(ControlFabricOptions{}, 3, 7);
  for (int i = 0; i < 3; ++i) {
    CtrlMessage m;
    m.type = CtrlMsgType::kHeartbeat;
    m.from = 0;
    m.to = 1 + (i % 2);
    m.epoch = static_cast<std::uint64_t>(i);
    f.send(std::move(m), 0.0);
  }
  const auto due = f.deliver(0.0);
  ASSERT_EQ(due.size(), 3u);
  for (std::size_t i = 0; i < due.size(); ++i) {
    EXPECT_EQ(due[i].seq, i);
    EXPECT_EQ(due[i].epoch, i);
    EXPECT_EQ(due[i].deliver_at, 0.0);
  }
  EXPECT_EQ(f.sent(), 3u);
  EXPECT_EQ(f.delivered(), 3u);
  EXPECT_EQ(f.dropped(), 0u);
  EXPECT_EQ(f.in_flight(), 0u);
}

TEST(CtrlFabric, ImpairedFabricReplaysBitIdentically) {
  ControlFabricOptions opts;
  opts.delay = 0.05;
  opts.jitter = 0.2;
  opts.drop_prob = 0.3;
  ControlFabric a(opts, 3, 11);
  ControlFabric b(opts, 3, 11);
  auto drive = [](ControlFabric& f) {
    std::vector<CtrlMessage> out;
    for (int i = 0; i < 200; ++i) {
      CtrlMessage m;
      m.type = CtrlMsgType::kLoadReport;
      m.from = 1 + (i % 2);
      m.to = 0;
      m.payload = {static_cast<double>(i)};
      f.send(std::move(m), 0.01 * i);
      for (const auto& d : f.deliver(0.01 * i)) out.push_back(d);
    }
    for (const auto& d : f.deliver(1e9)) out.push_back(d);
    return out;
  };
  const auto da = drive(a);
  const auto db = drive(b);
  EXPECT_GT(a.dropped(), 0u);
  EXPECT_EQ(a.sent(), b.sent());
  EXPECT_EQ(a.dropped(), b.dropped());
  ASSERT_EQ(da.size(), db.size());
  for (std::size_t i = 0; i < da.size(); ++i) {
    EXPECT_EQ(da[i].seq, db[i].seq);
    EXPECT_EQ(da[i].deliver_at, db[i].deliver_at);  // bitwise, on purpose
    EXPECT_EQ(da[i].payload, db[i].payload);
  }
}

TEST(CtrlFabric, LinkSubstreamsAreIndependent) {
  // Traffic on link 0->1 must not shift the drop/jitter stream of link
  // 0->2: the k-th send on a link has the same fate whether or not other
  // links carried traffic in between.
  ControlFabricOptions opts;
  opts.jitter = 0.5;
  opts.drop_prob = 0.3;
  ControlFabric mixed(opts, 3, 5);
  ControlFabric solo(opts, 3, 5);
  for (int i = 0; i < 100; ++i) {
    CtrlMessage noise;
    noise.from = 0;
    noise.to = 1;
    mixed.send(std::move(noise), 0.1 * i);
    CtrlMessage probe;
    probe.from = 0;
    probe.to = 2;
    probe.payload = {static_cast<double>(i)};
    mixed.send(std::move(probe), 0.1 * i);
    CtrlMessage same;
    same.from = 0;
    same.to = 2;
    same.payload = {static_cast<double>(i)};
    solo.send(std::move(same), 0.1 * i);
  }
  auto probe_fates = [](ControlFabric& f) {
    std::vector<std::pair<double, double>> fates;  // (payload, deliver_at)
    for (const auto& m : f.deliver(1e9)) {
      if (m.to == 2) fates.emplace_back(m.payload[0], m.deliver_at);
    }
    return fates;
  };
  EXPECT_EQ(probe_fates(mixed), probe_fates(solo));
}

TEST(CtrlFabric, JitterLargerThanCadenceReordersSends) {
  ControlFabricOptions opts;
  opts.delay = 0.01;
  opts.jitter = 0.5;  // 5x the send cadence below
  ControlFabric f(opts, 2, 3);
  for (int i = 0; i < 50; ++i) {
    CtrlMessage m;
    m.from = 0;
    m.to = 1;
    f.send(std::move(m), 0.1 * i);
  }
  const auto due = f.deliver(1e9);
  ASSERT_EQ(due.size(), 50u);
  bool reordered = false;
  for (std::size_t i = 1; i < due.size(); ++i) {
    if (due[i].seq < due[i - 1].seq) reordered = true;
  }
  EXPECT_TRUE(reordered) << "jitter >> cadence must reorder some deliveries";
}

TEST(CtrlFabric, DropForDeadDiscardsOnlyTheVictimsQueue) {
  ControlFabricOptions opts;
  opts.delay = 1.0;
  ControlFabric f(opts, 3, 9);
  for (int i = 0; i < 6; ++i) {
    CtrlMessage m;
    m.from = 0;
    m.to = 1 + (i % 2);
    f.send(std::move(m), 0.0);
  }
  ASSERT_EQ(f.in_flight(), 6u);
  f.drop_for_dead(1);
  EXPECT_EQ(f.dropped_dead(), 3u);
  const auto due = f.deliver(10.0);
  ASSERT_EQ(due.size(), 3u);
  for (const auto& m : due) EXPECT_EQ(m.to, 2);
}

// --- coordinator ----------------------------------------------------------

TEST(CtrlCoordinator, ConvergesGeometricallyOnStaticWorkload) {
  // The convergence guarantee: with static demand reports the tatonnement
  // target is constant, so max|delta phi| contracts by exactly (1 - alpha)
  // per granting round until it crosses the convergence threshold.
  GlobalCoordinator gc(2, 1);
  ControlFabric f(ControlFabricOptions{}, 3, 1);
  std::vector<double> deltas;
  std::uint64_t last_epoch = 0;
  for (int t = 0; t < 20; ++t) {
    CtrlMessage r0;
    r0.type = CtrlMsgType::kLoadReport;
    r0.from = 1;
    r0.to = 0;
    r0.payload = {0.75};
    gc.receive(r0);
    CtrlMessage r1 = r0;
    r1.from = 2;
    r1.payload = {0.25};
    gc.receive(r1);
    gc.tick(static_cast<double>(t), f);
    if (gc.epoch() != last_epoch && gc.last_max_delta() > 0.0) {
      deltas.push_back(gc.last_max_delta());
    }
    last_epoch = gc.epoch();
  }
  ASSERT_GE(deltas.size(), 4u);
  for (std::size_t i = 1; i < deltas.size(); ++i) {
    // Exact (1 - alpha) contraction, up to rounding in the target's
    // floor-reserve arithmetic.
    EXPECT_NEAR(deltas[i] / deltas[i - 1], 1.0 - GlobalCoordinator::kAlpha,
                1e-12);
  }
  EXPECT_TRUE(gc.converged());
  EXPECT_NEAR(gc.slices()[0][0], 0.75, 5e-3);
  EXPECT_NEAR(gc.slices()[1][0], 0.25, 5e-3);
  // Converged: the epoch counter must have stopped advancing.
  const std::uint64_t settled = gc.epoch();
  for (int t = 20; t < 25; ++t) gc.tick(static_cast<double>(t), f);
  EXPECT_EQ(gc.epoch(), settled);
}

TEST(CtrlCoordinator, EpochAndSlicesSurviveCrashRestart) {
  GlobalCoordinator gc(2, 1);
  ControlFabric f(ControlFabricOptions{}, 3, 1);
  for (int t = 0; t < 5; ++t) {
    CtrlMessage r;
    r.type = CtrlMsgType::kLoadReport;
    r.from = 1;
    r.to = 0;
    r.payload = {1.0};
    gc.receive(r);
    gc.tick(static_cast<double>(t), f);
  }
  const std::uint64_t epoch = gc.epoch();
  const auto slices = gc.slices();
  ASSERT_GE(epoch, 2u);

  gc.crash();
  EXPECT_EQ(gc.epoch(), 0u);

  gc.restart(5.0);
  // The state log replays epoch and slice matrix: epoch numbers are never
  // re-issued, so pre-crash grants can never outrank post-restart ones.
  EXPECT_EQ(gc.epoch(), epoch);
  EXPECT_EQ(gc.slices(), slices);
}

TEST(CtrlCoordinator, SilentCellKeepsItsSlice) {
  // A partitioned cell's reports stop arriving; its slice must decay only
  // through column normalization (bounded), never be zeroed outright, and
  // never fall below the floor that lets it re-enter later.
  GlobalCoordinator gc(2, 1);
  ControlFabric f(ControlFabricOptions{}, 3, 1);
  for (int t = 0; t < 10; ++t) {
    CtrlMessage r;
    r.type = CtrlMsgType::kLoadReport;
    r.from = 2;  // only cell 1 reports
    r.to = 0;
    r.payload = {1.0};
    gc.receive(r);
    gc.tick(static_cast<double>(t), f);
  }
  EXPECT_GT(gc.slices()[1][0], gc.slices()[0][0]);
  EXPECT_GE(gc.slices()[0][0], GlobalCoordinator::kMinSlice);
  EXPECT_GT(gc.slices()[0][0], 0.1) << "silent cell must not be starved";
}

TEST(CtrlCoordinator, ReGrantsWhenAReportEchoesAnOlderEpoch) {
  // Grants flow only when the slice matrix moves, so a dropped grant would
  // be lost forever without anti-entropy: a load report echoing an epoch
  // behind the coordinator's must trigger a targeted re-grant.
  GlobalCoordinator gc(2, 1);
  ControlFabric f(ControlFabricOptions{}, 3, 1);
  for (int t = 0; t < 12; ++t) {
    for (int from = 1; from <= 2; ++from) {
      CtrlMessage r;
      r.type = CtrlMsgType::kLoadReport;
      r.from = from;
      r.to = 0;
      r.epoch = gc.epoch();
      r.payload = {1.0};
      gc.receive(r);
    }
    gc.tick(static_cast<double>(t), f);
  }
  ASSERT_TRUE(gc.converged());
  (void)f.deliver(100.0);  // drain the convergence traffic
  const std::uint64_t settled = gc.epoch();
  ASSERT_GE(settled, 1u);

  CtrlMessage behind;
  behind.type = CtrlMsgType::kLoadReport;
  behind.from = 2;
  behind.to = 0;
  behind.epoch = 0;  // cell 1's grants were all dropped by the fabric
  behind.payload = {1.0};  // same demand: the matrix must not move
  gc.receive(behind);
  gc.tick(6.5, f);
  bool regranted = false;
  for (const auto& m : f.deliver(100.0)) {
    if (m.type == CtrlMsgType::kSliceGrant && m.to == 2) {
      regranted = true;
      EXPECT_EQ(m.epoch, gc.epoch());
    }
  }
  EXPECT_TRUE(regranted);
  EXPECT_EQ(gc.epoch(), settled) << "re-grant must not mint a new epoch";
}

// --- cell controller ------------------------------------------------------

TEST(CtrlCell, RejectsGrantsThatDoNotOutrankTheAdoptedEpoch) {
  const ProblemInstance inst(clusters::small_lab());
  DecisionAuditLog audit;
  CellController cc(inst, 0, stub_cell_opts(), &audit);

  CtrlMessage g;
  g.type = CtrlMsgType::kSliceGrant;
  g.from = 0;
  g.to = 1;
  g.epoch = 2;
  g.sent_at = 0.0;
  g.payload = {0.6, 0.6};
  cc.receive(g, 0.0);
  EXPECT_EQ(cc.adopted_epoch(), 2u);

  // A delayed pre-crash grant (older epoch) and a duplicate (equal epoch)
  // must both bounce off the split-brain guard.
  CtrlMessage stale = g;
  stale.epoch = 1;
  stale.payload = {0.1, 0.1};
  cc.receive(stale, 1.0);
  CtrlMessage dup = g;
  cc.receive(dup, 1.5);
  EXPECT_EQ(cc.epochs_rejected(), 2u);
  EXPECT_EQ(cc.adopted_epoch(), 2u);
  EXPECT_TRUE(audit_has_cause(audit, AuditCause::kEpochRejected));
}

TEST(CtrlCell, HeartbeatTimeoutEntersAutonomyThenRejoins) {
  const ProblemInstance inst(clusters::small_lab());
  DecisionAuditLog audit;
  CellController cc(inst, 0, stub_cell_opts(), &audit);
  ControlFabric f(ControlFabricOptions{}, 2, 1);
  const double bw = inst.topology().cell(0).bandwidth;
  const std::vector<bool> alive = {true, true};

  EXPECT_TRUE(cc.tick(0.0, bw, alive, f));  // first local solve
  EXPECT_FALSE(cc.autonomous());

  // Silence past the heartbeat timeout flips the cell into local autonomy;
  // the stale grant then forces a re-solve attributed to local_autonomy.
  cc.tick(4.0, bw, alive, f);
  EXPECT_TRUE(cc.autonomous());
  EXPECT_EQ(cc.coordinator_losses(), 1u);
  EXPECT_TRUE(audit_has_cause(audit, AuditCause::kCoordinatorLost));

  cc.tick(6.0, bw, alive, f);
  EXPECT_TRUE(cc.stale());
  EXPECT_TRUE(audit_has_cause(audit, AuditCause::kLocalAutonomy));

  CtrlMessage hb;
  hb.type = CtrlMsgType::kHeartbeat;
  hb.from = 0;
  hb.to = 1;
  cc.receive(hb, 6.5);
  EXPECT_FALSE(cc.autonomous());
  EXPECT_EQ(cc.rejoins(), 1u);
  EXPECT_TRUE(audit_has_cause(audit, AuditCause::kRejoin));
}

TEST(CtrlCell, StaleGrantDiscountsUsableCapacity) {
  const ProblemInstance inst(clusters::small_lab());
  DecisionAuditLog audit;
  CellControllerOptions opts = stub_cell_opts();
  std::vector<std::vector<double>> seen_peaks;  // per solve, per sub-server
  opts.solver = [&](const ProblemInstance& sub, const JointOptions&) {
    std::vector<double> peaks;
    for (const auto& s : sub.topology().servers()) {
      peaks.push_back(s.compute.peak_flops);
    }
    seen_peaks.push_back(std::move(peaks));
    return stub_offload(sub);
  };
  CellController cc(inst, 0, opts, &audit);
  ControlFabric f(ControlFabricOptions{}, 2, 1);
  const double bw = inst.topology().cell(0).bandwidth;
  const std::vector<bool> alive = {true, true};
  std::vector<double> full;
  for (const auto& s : inst.topology().servers()) {
    full.push_back(s.compute.peak_flops);
  }

  // Single-cell topology: the assumed split grants the full servers.
  cc.tick(0.0, bw, alive, f);
  ASSERT_EQ(seen_peaks.size(), 1u);
  ASSERT_EQ(seen_peaks[0].size(), 2u);
  EXPECT_DOUBLE_EQ(seen_peaks[0][0], full[0]);
  EXPECT_DOUBLE_EQ(seen_peaks[0][1], full[1]);

  // Past the freshness window the grant goes stale: the cell keeps
  // operating but only trusts kStaleDiscount of the granted capacity.
  cc.tick(6.0, bw, alive, f);
  EXPECT_TRUE(cc.stale());
  EXPECT_EQ(cc.stale_transitions(), 1u);
  EXPECT_TRUE(audit_has_cause(audit, AuditCause::kStalePrice));
  ASSERT_EQ(seen_peaks.size(), 2u);
  EXPECT_DOUBLE_EQ(seen_peaks[1][0], CellController::kStaleDiscount * full[0]);
  EXPECT_DOUBLE_EQ(seen_peaks[1][1], CellController::kStaleDiscount * full[1]);

  // A fresh grant clears the staleness and restores the full slice.
  CtrlMessage g;
  g.type = CtrlMsgType::kSliceGrant;
  g.from = 0;
  g.to = 1;
  g.epoch = 1;
  g.sent_at = 6.5;
  g.payload = {1.0, 1.0};
  cc.receive(g, 6.5);
  EXPECT_FALSE(cc.stale());
  cc.tick(7.0, bw, alive, f);
  ASSERT_EQ(seen_peaks.size(), 3u);
  EXPECT_DOUBLE_EQ(seen_peaks[2][0], full[0]);
  EXPECT_DOUBLE_EQ(seen_peaks[2][1], full[1]);
}

TEST(CtrlCell, SliceMovesWithinTheHysteresisBandDoNotReSolve) {
  // Single-cell topology: the assumed split grants the full servers, so the
  // grants below move server 0's slice away from 1.0.
  const ProblemInstance inst(clusters::small_lab());
  DecisionAuditLog audit;
  CellController cc(inst, 0, stub_cell_opts(), &audit);
  ControlFabric f(ControlFabricOptions{}, 2, 1);
  const double bw = inst.topology().cell(0).bandwidth;
  const std::vector<bool> alive = {true, true};
  cc.tick(0.0, bw, alive, f);
  ASSERT_EQ(cc.local_solves(), 1u);

  const double h = CellController::kSliceHysteresis;
  CtrlMessage g;
  g.type = CtrlMsgType::kSliceGrant;
  g.from = 0;
  g.to = 1;
  g.epoch = 1;
  g.sent_at = 0.5;
  g.payload = {1.0 - 0.9 * h, 1.0};
  cc.receive(g, 0.5);
  cc.tick(1.0, bw, alive, f);
  EXPECT_EQ(cc.adopted_epoch(), 1u);
  EXPECT_EQ(cc.local_solves(), 1u) << "a move inside the band is noise";

  // Measured against the adopted grant, not the solved one.
  g.epoch = 2;
  g.sent_at = 1.5;
  g.payload = {1.0 - 2.0 * h, 1.0};
  cc.receive(g, 1.5);
  cc.tick(2.0, bw, alive, f);
  EXPECT_EQ(cc.adopted_epoch(), 2u);
  EXPECT_EQ(cc.local_solves(), 2u) << "a move past the band re-solves";
}

TEST(CtrlCell, UplinkDriftWithinTheHysteresisBandDoesNotReSolve) {
  const ProblemInstance inst(clusters::small_lab());
  DecisionAuditLog audit;
  CellController cc(inst, 0, stub_cell_opts(), &audit);
  ControlFabric f(ControlFabricOptions{}, 2, 1);
  const double bw = inst.topology().cell(0).bandwidth;
  const std::vector<bool> alive = {true, true};
  cc.tick(0.0, bw, alive, f);
  ASSERT_EQ(cc.local_solves(), 1u);

  const double h = failover::kBandwidthHysteresis;
  cc.tick(0.5, bw * (1.0 + 0.95 * h), alive, f);
  cc.tick(1.0, bw * (1.0 - 0.95 * h), alive, f);
  EXPECT_EQ(cc.local_solves(), 1u) << "drift inside the band is noise";

  cc.tick(1.5, bw * (1.0 + 1.05 * h), alive, f);
  EXPECT_EQ(cc.local_solves(), 2u) << "drift past the band re-solves";
  EXPECT_TRUE(audit_has_cause(audit, AuditCause::kResolve));
  // The new solve re-anchors the band on the uplink it used.
  cc.tick(2.0, bw * (1.0 + 1.05 * h) * (1.0 + 0.95 * h), alive, f);
  EXPECT_EQ(cc.local_solves(), 2u);
}

TEST(CtrlCell, HeartbeatOnAdoptedEpochKeepsPricesFresh) {
  // A converged coordinator stops granting; its heartbeats (same epoch)
  // must re-anchor freshness, or every cell would drift into a permanent
  // stale discount on a perfectly healthy fabric.
  const ProblemInstance inst(clusters::small_lab());
  DecisionAuditLog audit;
  CellController cc(inst, 0, stub_cell_opts(), &audit);
  ControlFabric f(ControlFabricOptions{}, 2, 1);
  const double bw = inst.topology().cell(0).bandwidth;
  const std::vector<bool> alive = {true, true};

  CtrlMessage g;
  g.type = CtrlMsgType::kSliceGrant;
  g.from = 0;
  g.to = 1;
  g.epoch = 1;
  g.sent_at = 0.0;
  g.payload = {1.0, 1.0};
  cc.receive(g, 0.0);
  cc.tick(0.0, bw, alive, f);

  CtrlMessage hb;
  hb.type = CtrlMsgType::kHeartbeat;
  hb.from = 0;
  hb.to = 1;
  hb.epoch = 1;  // same epoch: the slice matrix has not moved
  hb.sent_at = 4.0;
  cc.receive(hb, 4.0);
  cc.tick(6.0, bw, alive, f);
  EXPECT_FALSE(cc.stale()) << "heartbeat on the adopted epoch must refresh";
  EXPECT_EQ(cc.stale_transitions(), 0u);

  // A heartbeat announcing a NEWER epoch means we missed a grant — it must
  // NOT refresh, and silence past the freshness window from the last anchor
  // goes stale as usual.
  CtrlMessage ahead = hb;
  ahead.epoch = 2;
  ahead.sent_at = 7.0;
  cc.receive(ahead, 7.0);
  cc.tick(10.0, bw, alive, f);
  EXPECT_TRUE(cc.stale());
  EXPECT_EQ(cc.stale_transitions(), 1u);
}

TEST(CtrlCell, CrashRestartReplaysTheStateLog) {
  const ProblemInstance inst(clusters::small_lab());
  DecisionAuditLog audit;
  CellController cc(inst, 0, stub_cell_opts(), &audit);
  ControlFabric f(ControlFabricOptions{}, 2, 1);
  const double bw = inst.topology().cell(0).bandwidth;
  const std::vector<bool> alive = {true, true};

  CtrlMessage g;
  g.type = CtrlMsgType::kSliceGrant;
  g.from = 0;
  g.to = 1;
  g.epoch = 3;
  g.sent_at = 0.0;
  g.payload = {0.8, 0.8};
  cc.receive(g, 0.0);
  cc.tick(0.0, bw, alive, f);
  ASSERT_TRUE(cc.has_plan());
  const std::vector<DeviceDecision> before = cc.local();

  cc.crash();
  EXPECT_FALSE(cc.has_plan());
  EXPECT_EQ(cc.adopted_epoch(), 0u);

  cc.restart(4.0);
  EXPECT_EQ(cc.restarts(), 1u);
  EXPECT_EQ(cc.adopted_epoch(), 3u);
  ASSERT_TRUE(cc.has_plan());
  ASSERT_EQ(cc.local().size(), before.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(cc.local()[i].server, before[i].server);
    EXPECT_EQ(cc.local()[i].compute_share, before[i].compute_share);
  }
  bool replay_audited = false;
  for (const auto& r : audit.records()) {
    if (r.cause == AuditCause::kFailover &&
        r.detail.find("replayed epoch 3") != std::string::npos) {
      replay_audited = true;
    }
  }
  EXPECT_TRUE(replay_audited);

  // Same conditions, still-fresh replayed grant: the restarted controller
  // resumes the replayed plan without a re-solve.
  const std::uint64_t solves = cc.local_solves();
  EXPECT_FALSE(cc.tick(4.0, bw, alive, f));
  EXPECT_EQ(cc.local_solves(), solves);
}

TEST(CtrlCell, NoUsableServerDegradesToDeviceOnlyAndRecovers) {
  const ProblemInstance inst(clusters::small_lab());
  DecisionAuditLog audit;
  CellController cc(inst, 0, stub_cell_opts(), &audit);
  ControlFabric f(ControlFabricOptions{}, 2, 1);
  const double bw = inst.topology().cell(0).bandwidth;

  EXPECT_TRUE(cc.tick(0.0, bw, {false, false}, f));
  ASSERT_TRUE(cc.has_plan());
  for (const auto& dd : cc.local()) EXPECT_TRUE(dd.plan.device_only);

  // Servers coming back is a liveness flip: the cell re-solves and offloads
  // again without waiting for any coordinator input.
  EXPECT_TRUE(cc.tick(1.0, bw, {true, true}, f));
  bool any_offload = false;
  for (const auto& dd : cc.local()) any_offload |= !dd.plan.device_only;
  EXPECT_TRUE(any_offload);
  EXPECT_TRUE(audit_has_cause(audit, AuditCause::kFailover));
}

// --- plane ----------------------------------------------------------------

TEST(CtrlPlane, ConvergesOnCleanFabric) {
  const ClusterTopology topo = four_cell_campus();
  DistributedPlaneOptions po;
  po.cell = stub_cell_opts();
  DistributedControlPlane plane(topo, po);

  bool got_plan = false;
  for (int t = 0; t <= 10; ++t) {
    const ControlAction a = plane.tick(observe_all_up(t, topo));
    got_plan |= a.decision.has_value();
  }
  EXPECT_TRUE(got_plan);
  EXPECT_TRUE(plane.converged());
  EXPECT_GE(plane.coordinator().epoch(), 1u);
  EXPECT_EQ(plane.dead_letters(), 0u);
  EXPECT_EQ(plane.fabric().dropped(), 0u);
  EXPECT_EQ(plane.cell_fallbacks(), 0u);
  // Every cell adopted the final epoch and offloads its members.
  for (const auto& cell : plane.cells()) {
    EXPECT_EQ(cell.adopted_epoch(), plane.coordinator().epoch());
    ASSERT_TRUE(cell.has_plan());
  }
  std::size_t offloaded = 0;
  for (const auto& dd : plane.merged().per_device) {
    if (!dd.plan.device_only) {
      ++offloaded;
      EXPECT_GT(dd.compute_share, 0.0);
      EXPECT_GT(dd.bandwidth, 0.0);
    }
  }
  EXPECT_GT(offloaded, 0u);
}

TEST(CtrlPlane, CoordinatorOutageFallsBackToAutonomyThenRejoins) {
  const ClusterTopology topo = four_cell_campus();
  DistributedPlaneOptions po;
  po.cell = stub_cell_opts();
  po.controller_faults = FaultSchedule::server_crash(0, 3.0, 10.0);
  DistributedControlPlane plane(topo, po);

  for (int t = 0; t <= 20; ++t) {
    // Mid-outage uplink drop: cells must re-plan on their own (validated
    // local autonomy), not block on the dead coordinator.
    const double scale = (t >= 7 && t < 12) ? 0.5 : 1.0;
    plane.tick(observe_all_up(t, topo, scale));
  }
  EXPECT_EQ(plane.coordinator_crashes(), 1u);
  EXPECT_EQ(plane.coordinator_losses(), plane.cells().size());
  EXPECT_GE(plane.rejoins(), plane.cells().size());
  const auto& audit = plane.audit_log();
  EXPECT_TRUE(audit_has_cause(audit, AuditCause::kCoordinatorLost));
  EXPECT_TRUE(audit_has_cause(audit, AuditCause::kLocalAutonomy));
  EXPECT_TRUE(audit_has_cause(audit, AuditCause::kRejoin));
  // After the restart the replayed coordinator re-announces itself and the
  // plane settles again.
  EXPECT_TRUE(plane.converged());
  EXPECT_EQ(plane.cell_fallbacks(), 0u);
}

TEST(CtrlPlane, CellControllerCrashReplaysItsLogAndCatchesUp) {
  const ClusterTopology topo = four_cell_campus();
  DistributedPlaneOptions po;
  po.cell = stub_cell_opts();
  po.controller_faults = FaultSchedule::server_crash(2, 2.0, 5.0);  // cell 1
  DistributedControlPlane plane(topo, po);

  for (int t = 0; t <= 10; ++t) plane.tick(observe_all_up(t, topo));
  EXPECT_EQ(plane.controller_crashes(), 1u);
  EXPECT_EQ(plane.cells()[1].restarts(), 1u);
  EXPECT_GE(plane.dead_letters(), 1u);  // heartbeats sent into the outage
  // The restarted controller replayed its own log: same epoch as the
  // coordinator without needing a fresh grant.
  EXPECT_EQ(plane.cells()[1].adopted_epoch(), plane.coordinator().epoch());
  EXPECT_TRUE(plane.converged());
}

TEST(CtrlPlane, ImpairedFabricAndChurnReplayBitIdentically) {
  // The whole plane — lossy reordering fabric, coordinator outage, stale
  // grants, epoch rejections — must be a pure function of (options, seed,
  // observation sequence). Two instances, same inputs: identical audit
  // trail and counters.
  const ClusterTopology topo = four_cell_campus();
  DistributedPlaneOptions po;
  po.cell = stub_cell_opts();
  po.fabric.delay = 0.3;
  po.fabric.jitter = 1.5;  // > the 1 s cadence: reorders grants
  po.fabric.drop_prob = 0.2;
  po.seed = 99;
  po.controller_faults = FaultSchedule::server_crash(0, 4.0, 8.0);

  auto run = [&](DistributedControlPlane& plane) {
    for (int t = 0; t <= 25; ++t) {
      const double scale = (t % 5 == 3) ? 0.6 : 1.0;
      plane.tick(observe_all_up(t, topo, scale));
    }
  };
  DistributedControlPlane a(topo, po);
  DistributedControlPlane b(topo, po);
  run(a);
  run(b);

  EXPECT_GT(a.fabric().dropped(), 0u);
  EXPECT_EQ(a.fabric().sent(), b.fabric().sent());
  EXPECT_EQ(a.fabric().dropped(), b.fabric().dropped());
  EXPECT_EQ(a.fabric().delivered(), b.fabric().delivered());
  EXPECT_EQ(a.plan_changes(), b.plan_changes());
  EXPECT_EQ(a.local_solves(), b.local_solves());
  EXPECT_EQ(a.epochs_rejected(), b.epochs_rejected());
  EXPECT_EQ(a.stale_events(), b.stale_events());
  EXPECT_EQ(a.dead_letters(), b.dead_letters());
  EXPECT_EQ(a.coordinator_losses(), b.coordinator_losses());
  EXPECT_EQ(a.rejoins(), b.rejoins());
  EXPECT_EQ(a.audit_log().to_json().dump_pretty(),
            b.audit_log().to_json().dump_pretty());
}

TEST(CtrlSpans, LossyFabricSpanStreamReconcilesAndChainsCausally) {
  // Same churn scenario as the replay test, with span tracing on: the span
  // stream must obey the send conservation law, agree with the fabric's own
  // counters, and chain re-grants causally (a kRegrant reuses the original
  // grant's correlation id, so the mint is findable on the same id).
  const ClusterTopology topo = four_cell_campus();
  DistributedPlaneOptions po;
  po.cell = stub_cell_opts();
  po.fabric.delay = 0.3;
  po.fabric.jitter = 1.5;
  po.fabric.drop_prob = 0.2;
  po.seed = 99;
  po.controller_faults = FaultSchedule::server_crash(0, 4.0, 8.0);
  po.span_capacity = 1u << 16;
  DistributedControlPlane plane(topo, po);
  // Tracing must be purely observational: an untraced twin on the same
  // inputs replays bit-identically.
  DistributedPlaneOptions po_untraced = po;
  po_untraced.span_capacity = 0;
  DistributedControlPlane untraced(topo, po_untraced);

  for (int t = 0; t <= 25; ++t) {
    const double scale = (t % 5 == 3) ? 0.6 : 1.0;
    plane.tick(observe_all_up(t, topo, scale));
    untraced.tick(observe_all_up(t, topo, scale));
  }

  const auto spans = plane.ctrl_trace().snapshot();
  EXPECT_EQ(plane.ctrl_trace().dropped(), 0u);  // ring sized for the run
  const auto counts = ctrl_span_counts(spans);
  const auto count = [&](CtrlSpanEvent e) {
    return static_cast<std::uint64_t>(counts[static_cast<std::size_t>(e)]);
  };

  // The scenario actually exercised loss and recovery, not a quiet fabric.
  EXPECT_GT(count(CtrlSpanEvent::kDropped), 0u);
  EXPECT_GT(count(CtrlSpanEvent::kRegrant), 0u);
  EXPECT_GT(count(CtrlSpanEvent::kAdopted), 0u);

  // Span stream vs the fabric's own counters, exactly.
  EXPECT_EQ(count(CtrlSpanEvent::kSent), plane.fabric().sent());
  EXPECT_EQ(count(CtrlSpanEvent::kDropped), plane.fabric().dropped());
  EXPECT_EQ(count(CtrlSpanEvent::kDelivered), plane.fabric().delivered());
  // Conservation: every send ends in exactly one fabric outcome. The
  // routing-side dead letters (recipient down at delivery) annotate spans
  // that already counted as delivered, so they sit outside the identity.
  EXPECT_EQ(count(CtrlSpanEvent::kSent),
            count(CtrlSpanEvent::kDropped) +
                count(CtrlSpanEvent::kDelivered) +
                plane.fabric().dropped_dead() + plane.fabric().in_flight());
  EXPECT_EQ(count(CtrlSpanEvent::kDeadLetter),
            plane.fabric().dropped_dead() + plane.dead_letters());

  // Causality: every re-grant's correlation id traces back to an earlier
  // kSent (the original mint), never out of thin air.
  for (const auto& sp : spans) {
    if (sp.event != CtrlSpanEvent::kRegrant) continue;
    bool minted = false;
    for (const auto& prior : spans) {
      if (prior.corr == sp.corr && prior.event == CtrlSpanEvent::kSent &&
          prior.time <= sp.time) {
        minted = true;
        break;
      }
    }
    EXPECT_TRUE(minted) << "regrant corr " << sp.corr << " has no mint";
  }

  // The traced plane's trajectory is bit-identical to the untraced twin's.
  EXPECT_EQ(plane.fabric().sent(), untraced.fabric().sent());
  EXPECT_EQ(plane.fabric().dropped(), untraced.fabric().dropped());
  EXPECT_EQ(plane.plan_changes(), untraced.plan_changes());
  EXPECT_EQ(plane.audit_log().to_json().dump_pretty(),
            untraced.audit_log().to_json().dump_pretty());
}

TEST(CtrlPlane, ParallelCellSolvesMatchSerial) {
  // The default solver's cell solves run side by side on the shared pool; a
  // seam wrapping the same JointOptimizer runs them one by one in cell
  // order. Over a lossy fabric, a coordinator outage and server flips, both
  // planes must merge the same decisions on every tick and leave the same
  // audit log, spans and counters.
  clusters::CampusOptions copts;
  copts.num_devices = 48;
  copts.num_servers = 6;
  copts.seed = 7;
  const ClusterTopology topo = clusters::campus(copts);
  ASSERT_EQ(topo.cells().size(), 6u);
  DistributedPlaneOptions po;
  po.cell.joint.max_iterations = 2;
  po.cell.joint.dp_coverage_bins = 40;
  po.cell.joint.theta_grid = {0.0, 0.3, 0.6};
  po.fabric.delay = 0.05;
  po.fabric.jitter = 0.1;
  po.fabric.drop_prob = 0.15;
  po.seed = 5;
  po.controller_faults = FaultSchedule::server_crash(0, 6.0, 12.0);
  po.span_capacity = 1u << 14;
  DistributedControlPlane parallel(topo, po);
  po.cell.solver = [](const ProblemInstance& sub, const JointOptions& o) {
    return JointOptimizer(o).optimize(sub);
  };
  DistributedControlPlane serial(topo, po);

  std::size_t changes = 0;
  for (int t = 0; t <= 16; ++t) {
    Observation o = observe_all_up(t, topo, t % 7 == 4 ? 0.6 : 1.0);
    if (t >= 3 && t < 5) o.server_alive[2] = false;
    if (t >= 9 && t < 11) o.server_alive[4] = false;
    const ControlAction a = parallel.tick(o);
    const ControlAction b = serial.tick(o);
    ASSERT_EQ(a.decision.has_value(), b.decision.has_value()) << "t=" << t;
    if (!a.decision) continue;
    ++changes;
    ASSERT_EQ(a.decision->per_device, b.decision->per_device) << "t=" << t;
  }
  EXPECT_GT(changes, 3u);
  EXPECT_GT(parallel.local_solves(), 2 * topo.cells().size());
  EXPECT_GT(parallel.coordinator_losses(), 0u);
  EXPECT_EQ(parallel.local_solves(), serial.local_solves());
  EXPECT_EQ(parallel.audit_log().to_json().dump(),
            serial.audit_log().to_json().dump());
  EXPECT_EQ(parallel.ctrl_trace().dropped(), 0u);
  EXPECT_TRUE(parallel.ctrl_trace().snapshot() ==
              serial.ctrl_trace().snapshot());
  MetricsRegistry a_reg;
  MetricsRegistry b_reg;
  parallel.publish_metrics(a_reg);
  serial.publish_metrics(b_reg);
  EXPECT_EQ(a_reg.to_json().dump(), b_reg.to_json().dump());
}

TEST(CtrlGolden, DefaultSolverCampusOnLossyFabric) {
  // The path perfbench's cells-lossy and the CLI run: no solver seam, so the
  // cells solve side by side on the shared pool. A 48-device campus over a
  // lossy fabric, a coordinator outage, one cell controller's crash and
  // restart, a bandwidth dip and server flips. Pinned: FNV-1a hashes of the
  // audit log's JSON, the merged Decision and the published ctrl.* registry.
  // A failure prints the new hash; re-freezing is a behaviour change.
  clusters::CampusOptions copts;
  copts.num_devices = 48;
  copts.num_servers = 6;
  copts.seed = 7;
  const ClusterTopology topo = clusters::campus(copts);
  ASSERT_EQ(topo.cells().size(), 6u);
  DistributedPlaneOptions po;
  po.cell.joint.max_iterations = 2;
  po.cell.joint.dp_coverage_bins = 40;
  po.cell.joint.theta_grid = {0.0, 0.3, 0.6};
  po.fabric.delay = 0.05;
  po.fabric.jitter = 1.5;
  po.fabric.drop_prob = 0.15;
  po.seed = 11;
  po.controller_faults = FaultSchedule::server_crash(0, 6.0, 12.0).merged(
      FaultSchedule::server_crash(3, 14.0, 17.0));
  DistributedControlPlane plane(topo, po);
  ASSERT_FALSE(static_cast<bool>(po.cell.solver));

  for (int t = 0; t <= 22; ++t) {
    Observation o = observe_all_up(t, topo, t % 7 == 4 ? 0.6 : 1.0);
    if (t >= 3 && t < 5) o.server_alive[2] = false;
    if (t >= 9 && t < 11) o.server_alive[4] = false;
    plane.tick(o);
  }
  EXPECT_GT(plane.coordinator_losses(), 0u);
  EXPECT_TRUE(audit_has_cause(plane.audit_log(), AuditCause::kRejoin));
  EXPECT_TRUE(audit_has_cause(plane.audit_log(), AuditCause::kEpochRejected));
  EXPECT_GT(plane.cells()[2].restarts(), 0u);

  MetricsRegistry reg;
  plane.publish_metrics(reg);
  const std::uint64_t audit = fnv1a(plane.audit_log().to_json().dump());
  const std::uint64_t merged = fnv1a(serialize::to_json(plane.merged()).dump());
  const std::uint64_t registry = fnv1a(reg.to_json().dump());
  EXPECT_EQ(plane.local_solves(), 75u);
  EXPECT_EQ(audit, 9418323528883752615ull) << "audit hash " << audit;
  EXPECT_EQ(merged, 3336479902378732000ull) << "merged hash " << merged;
  EXPECT_EQ(registry, 4131351370974959383ull) << "registry hash " << registry;
}

TEST(CtrlPlane, CustomSolverSeamRunsOnTheTickThreadInCellOrder) {
  // Each cell observes a distinct uplink, which its sub-instance carries as
  // cell 0's bandwidth: the seam's calls name their cells.
  const ClusterTopology topo = four_cell_campus();
  std::vector<double> seen_bw;
  std::vector<std::thread::id> seen_thread;
  DistributedPlaneOptions po;
  po.cell.solver = [&](const ProblemInstance& sub, const JointOptions&) {
    seen_bw.push_back(sub.topology().cell(0).bandwidth);
    seen_thread.push_back(std::this_thread::get_id());
    return stub_offload(sub);
  };
  DistributedControlPlane plane(topo, po);
  Observation o = observe_all_up(0.0, topo);
  for (std::size_t k = 0; k < o.cell_bandwidth.size(); ++k) {
    o.cell_bandwidth[k] = 1e6 * static_cast<double>(k + 1);
  }
  plane.tick(o);

  ASSERT_EQ(seen_bw.size(), topo.cells().size());  // every initial solve
  for (std::size_t k = 0; k < seen_bw.size(); ++k) {
    EXPECT_EQ(seen_bw[k], o.cell_bandwidth[k]) << k;
    EXPECT_EQ(seen_thread[k], std::this_thread::get_id()) << k;
  }
}

TEST(CtrlPlane, PublishedMetricsReconcileWithPlaneCounters) {
  const ClusterTopology topo = four_cell_campus();
  DistributedPlaneOptions po;
  po.cell = stub_cell_opts();
  po.fabric.delay = 0.3;
  po.fabric.jitter = 1.5;
  po.fabric.drop_prob = 0.2;
  po.seed = 99;
  po.span_capacity = 1u << 12;
  DistributedControlPlane plane(topo, po);
  for (int t = 0; t <= 15; ++t) plane.tick(observe_all_up(t, topo));

  MetricsRegistry reg;
  plane.publish_metrics(reg);

  // Every published ctrl.* value equals the plane's own accessor.
  EXPECT_EQ(reg.counter("ctrl.msg.sent").value(), plane.fabric().sent());
  EXPECT_EQ(reg.counter("ctrl.msg.delivered").value(),
            plane.fabric().delivered());
  EXPECT_EQ(reg.counter("ctrl.msg.dropped").value(),
            plane.fabric().dropped());
  EXPECT_EQ(reg.counter("ctrl.msg.dropped_dead").value(),
            plane.fabric().dropped_dead());
  EXPECT_EQ(reg.counter("ctrl.dead_letters").value(), plane.dead_letters());
  EXPECT_EQ(reg.counter("ctrl.epochs_minted").value(),
            plane.coordinator().epoch());
  EXPECT_EQ(reg.counter("ctrl.regrants").value(),
            plane.coordinator().regrants());
  EXPECT_EQ(reg.counter("ctrl.ticks").value(), plane.ticks());
  EXPECT_EQ(reg.counter("ctrl.plan_changes").value(), plane.plan_changes());
  EXPECT_EQ(reg.counter("ctrl.spans.recorded").value(),
            plane.ctrl_trace().recorded());
  EXPECT_DOUBLE_EQ(reg.gauge("ctrl.in_flight").value(),
                   static_cast<double>(plane.fabric().in_flight()));
  EXPECT_DOUBLE_EQ(reg.gauge("ctrl.converged").value(),
                   plane.converged() ? 1.0 : 0.0);

  // The registry view alone closes the conservation identity — what the
  // validate-trace CLI check relies on.
  EXPECT_EQ(reg.counter("ctrl.msg.sent").value(),
            reg.counter("ctrl.msg.dropped").value() +
                reg.counter("ctrl.msg.delivered").value() +
                reg.counter("ctrl.msg.dropped_dead").value() +
                static_cast<std::uint64_t>(
                    reg.gauge("ctrl.in_flight").value()));
}

}  // namespace
}  // namespace scalpel
