// End-to-end flows: optimize -> evaluate -> simulate, across schemes. These
// assert the relationships the paper's evaluation is built on.

#include <gtest/gtest.h>

#include <cmath>

#include "baselines/baselines.hpp"
#include "core/joint.hpp"
#include "core/objective.hpp"
#include "core/online.hpp"
#include "edge/builders.hpp"
#include "sim/simulator.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

JointOptions fast_opts() {
  JointOptions o;
  o.max_iterations = 3;
  o.dp_coverage_bins = 50;
  o.theta_grid = {0.0, 0.3, 0.6};
  return o;
}

SimMetrics simulate(const ProblemInstance& inst, const Decision& d,
                    double horizon = 60.0, std::uint64_t seed = 1) {
  Simulator::Options opts;
  opts.horizon = horizon;
  opts.warmup = horizon * 0.1;
  opts.seed = seed;
  Simulator sim(inst, d, opts);
  return sim.run();
}

TEST(EndToEnd, JointDecisionSurvivesSimulation) {
  const ProblemInstance inst(clusters::small_lab());
  const auto joint = JointOptimizer(fast_opts()).optimize(inst);
  ASSERT_TRUE(std::isfinite(joint.mean_latency));
  const auto m = simulate(inst, joint);
  ASSERT_GT(m.completed, 100u);
  // The DES must confirm stability: measured mean below a small multiple of
  // the (conservative) analytical prediction.
  EXPECT_LT(m.latency.mean(), joint.mean_latency * 2.0);
  EXPECT_GT(m.deadline_satisfaction, 0.8);
}

TEST(EndToEnd, SimulatorAgreesOnSchemeOrdering) {
  // The DES must reproduce the analytical ranking between the joint scheme
  // and a clearly-worse baseline.
  const ProblemInstance inst(clusters::small_lab());
  const auto joint = JointOptimizer(fast_opts()).optimize(inst);
  const auto ns = baselines::neurosurgeon(inst);
  ASSERT_TRUE(std::isfinite(joint.mean_latency));
  ASSERT_TRUE(std::isfinite(ns.mean_latency));
  const auto mj = simulate(inst, joint, 90.0);
  const auto mn = simulate(inst, ns, 90.0);
  // Joint <= neurosurgeon analytically; allow DES noise but require it not
  // to be dramatically reversed.
  EXPECT_LT(mj.latency.mean(), mn.latency.mean() * 1.3);
}

TEST(EndToEnd, UnstableBaselineShowsRunawayLatencyInDes) {
  // device_only is analytically unstable on the small lab (cam0 overload).
  const ProblemInstance inst(clusters::small_lab());
  const auto local = baselines::device_only(inst);
  EXPECT_TRUE(std::isinf(local.mean_latency));
  const auto short_run = simulate(inst, local, 30.0, 5);
  const auto long_run = simulate(inst, local, 120.0, 5);
  // A growing queue shows up as latency increasing with the horizon.
  EXPECT_GT(long_run.latency.mean(), short_run.latency.mean());
}

TEST(EndToEnd, AccuracyFloorsHoldInSimulation) {
  const ProblemInstance inst(clusters::small_lab());
  const auto joint = JointOptimizer(fast_opts()).optimize(inst);
  const auto m = simulate(inst, joint, 120.0);
  // Aggregate measured accuracy must respect the weighted floors closely
  // (each device's plan was constrained individually).
  for (std::size_t i = 0; i < m.per_device.size(); ++i) {
    if (m.per_device[i].completed < 50) continue;
    const double measured =
        m.per_device[i].accuracy_sum /
        static_cast<double>(m.per_device[i].completed);
    EXPECT_GE(measured,
              inst.topology().device(static_cast<DeviceId>(i)).min_accuracy -
                  0.03)
        << "device " << i;
  }
}

TEST(EndToEnd, CampusScalePipeline) {
  clusters::CampusOptions copts;
  copts.num_devices = 12;
  copts.num_servers = 3;
  copts.seed = 3;
  const ProblemInstance inst(clusters::campus(copts));
  const auto joint = JointOptimizer(fast_opts()).optimize(inst);
  ASSERT_EQ(joint.per_device.size(), 12u);
  const auto m = simulate(inst, joint, 40.0);
  EXPECT_GT(m.completed, 200u);
  EXPECT_TRUE(std::isfinite(m.latency.p99()));
}

TEST(EndToEnd, OnlineAdaptationBeatsStaticUnderBandwidthDrop) {
  // Gilbert-style bandwidth collapse; the adaptive controller re-optimizes,
  // the static decision suffers.
  const auto topo = clusters::small_lab();
  const ProblemInstance inst(topo);
  const auto static_decision = JointOptimizer(fast_opts()).optimize(inst);

  const double good = topo.cell(0).bandwidth;
  const double bad = mbps(4.0);
  BandwidthTrace trace({{0.0, good}, {30.0, bad}});

  // Static run.
  Simulator::Options opts;
  opts.horizon = 90.0;
  opts.warmup = 5.0;
  opts.seed = 11;
  Simulator static_sim(inst, static_decision, opts);
  static_sim.set_cell_trace(0, trace);
  const auto static_m = static_sim.run();

  // Adaptive run.
  OnlineController::Options copts2;
  copts2.hysteresis = 0.2;
  copts2.joint = fast_opts();
  OnlineController controller(topo, copts2);
  Simulator::Options aopts = opts;
  aopts.control_interval = 5.0;
  Simulator adaptive_sim(inst, static_decision, aopts);
  adaptive_sim.set_cell_trace(0, trace);
  adaptive_sim.set_controller([tick = controller.callback()](Observation o) {
    o.offered_rate.clear();  // liveness and bandwidth only: no load signals
    o.queue_depth.clear();
    return tick(o);
  });
  const auto adaptive_m = adaptive_sim.run();

  EXPECT_GT(controller.reoptimizations(), 0u);
  EXPECT_LT(adaptive_m.latency.p99(), static_m.latency.p99());
}

}  // namespace
}  // namespace scalpel
