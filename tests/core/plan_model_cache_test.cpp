// PlanModelCache: compiled plans are shared by value key, the key holds every
// input PlanModel reads, entries no holder keeps are dropped, and the
// evaluator's cached models predict exactly what a fresh compile does.

#include "core/objective.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "baselines/baselines.hpp"
#include "core/instance.hpp"
#include "core/joint.hpp"
#include "edge/builders.hpp"
#include "sim/compiled_device.hpp"

namespace scalpel {
namespace {

/// One full set of get_or_compile arguments.
struct Inputs {
  const ModelBundle* bundle = nullptr;
  SurgeryPlan plan;
  ComputeProfile device;
  ComputeProfile server;
  LinkSpec link;
  DifficultyModel difficulty;
};

std::shared_ptr<const PlanModel> compile(PlanModelCache& cache,
                                         const Inputs& in) {
  return cache.get_or_compile(*in.bundle, in.plan, in.device, in.server,
                              in.link, in.difficulty);
}

/// An offloading plan with two exits on the middle clean cut of the lab's
/// first device's model.
Inputs base_inputs(const ProblemInstance& instance) {
  Inputs in;
  in.bundle = &instance.bundle_for(0);
  const auto cuts = in.bundle->graph.clean_cuts();
  in.plan.partition_after = cuts[cuts.size() / 2].after;
  in.plan.policy.exits = {{0, 0.4}, {1, 0.5}};
  in.device = profiles::raspberry_pi4();
  in.server = profiles::edge_gpu_t4();
  in.link.bandwidth = 1e7;
  in.link.rtt = 2e-3;
  in.difficulty = DifficultyModel(2.0, 3.0);
  return in;
}

TEST(PlanModelCache, EqualInputsShareOneModel) {
  const ProblemInstance inst(clusters::small_lab());
  const Inputs in = base_inputs(inst);
  PlanModelCache cache;
  const auto a = compile(cache, in);
  Inputs copy = in;
  // Profile names are labels: PlanModel never reads them.
  copy.device.name = "renamed";
  copy.server.name = "renamed";
  EXPECT_EQ(compile(cache, copy), a);
  EXPECT_EQ(compile(cache, in), a);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(PlanModelCache, EveryInputIsInTheKey) {
  const ProblemInstance inst(clusters::small_lab());
  // Same model, separately built bundle: a different identity.
  const ProblemInstance twin(clusters::small_lab());
  const Inputs base = base_inputs(inst);
  ASSERT_GE(base.bundle->candidates.size(), 3u);
  const auto cuts = base.bundle->graph.clean_cuts();

  const std::vector<std::pair<std::string, std::function<void(Inputs&)>>>
      changes = {
          {"bundle", [&](Inputs& in) { in.bundle = &twin.bundle_for(0); }},
          {"cut",
           [&](Inputs& in) {
             in.plan.partition_after = cuts[cuts.size() / 2 + 1].after;
           }},
          {"device_only", [](Inputs& in) { in.plan.device_only = true; }},
          {"quantize_upload",
           [](Inputs& in) { in.plan.quantize_upload = true; }},
          {"exit candidate",
           [](Inputs& in) { in.plan.policy.exits[1].candidate = 2; }},
          {"exit theta",
           [](Inputs& in) { in.plan.policy.exits[0].theta = 0.45; }},
          {"device peak_flops",
           [](Inputs& in) { in.device.peak_flops *= 1.5; }},
          {"device mem_bw", [](Inputs& in) { in.device.mem_bw *= 1.5; }},
          {"device layer_overhead",
           [](Inputs& in) { in.device.layer_overhead *= 1.5; }},
          {"device efficiency",
           [](Inputs& in) { in.device.efficiency[LayerKind::kDWConv] = 0.5; }},
          {"server peak_flops",
           [](Inputs& in) { in.server.peak_flops *= 1.5; }},
          {"server mem_bw", [](Inputs& in) { in.server.mem_bw *= 1.5; }},
          {"server layer_overhead",
           [](Inputs& in) { in.server.layer_overhead *= 1.5; }},
          {"server efficiency",
           [](Inputs& in) { in.server.efficiency[LayerKind::kConv] = 0.5; }},
          {"link bandwidth", [](Inputs& in) { in.link.bandwidth *= 2.0; }},
          {"link rtt", [](Inputs& in) { in.link.rtt *= 2.0; }},
          {"difficulty a",
           [](Inputs& in) { in.difficulty = DifficultyModel(2.5, 3.0); }},
          {"difficulty b",
           [](Inputs& in) { in.difficulty = DifficultyModel(2.0, 3.5); }},
      };

  PlanModelCache cache;
  const auto shared = compile(cache, base);
  for (const auto& [what, change] : changes) {
    SCOPED_TRACE(what);
    Inputs in = base;
    change(in);
    const auto model = compile(cache, in);
    EXPECT_NE(model, shared);
    EXPECT_EQ(compile(cache, in), model);
  }
  EXPECT_EQ(cache.size(), changes.size() + 1);
}

TEST(PlanModelCache, EvictsPlansNoDeviceHolds) {
  // Two devices with different compute profiles: two distinct plans.
  const ProblemInstance inst(clusters::small_lab());
  DeviceDecision local;
  local.plan.device_only = true;

  PlanModelCache cache;
  CompiledDevice a;
  CompiledDevice b;
  compile_device_decision(inst, 0, local, a, cache);
  compile_device_decision(inst, 2, local, b, cache);
  ASSERT_NE(a.plan, b.plan);
  ASSERT_EQ(cache.size(), 2u);

  cache.evict_unused();  // both still held
  EXPECT_EQ(cache.size(), 2u);

  a = CompiledDevice{};  // device 0's plan loses its only holder
  cache.evict_unused();
  EXPECT_EQ(cache.size(), 1u);

  // The surviving entry is the one b holds: recompiling device 2 hits it.
  CompiledDevice c;
  compile_device_decision(inst, 2, local, c, cache);
  EXPECT_EQ(c.plan, b.plan);
  EXPECT_EQ(cache.size(), 1u);
}

void expect_bit_equal(const DevicePrediction& got,
                      const DevicePrediction& want) {
  EXPECT_EQ(got.expected_latency, want.expected_latency);
  EXPECT_EQ(got.expected_accuracy, want.expected_accuracy);
  EXPECT_EQ(got.offload_prob, want.offload_prob);
  EXPECT_EQ(got.stable, want.stable);
  EXPECT_EQ(got.meets_accuracy, want.meets_accuracy);
}

// evaluate_decision compiles through its own cache; every prediction must
// match a fresh per-device compile bit for bit.
TEST(PlanModelCache, EvaluateDecisionMatchesEvaluateDevice) {
  clusters::CampusOptions o;
  o.num_devices = 48;
  o.num_servers = 6;
  o.seed = 7;
  const ProblemInstance inst(clusters::campus(o));

  std::vector<Decision> decisions;
  for (const auto& scheme : baselines::names()) {
    decisions.push_back(baselines::by_name(inst, scheme));
  }
  JointOptions light;
  light.max_iterations = 2;
  light.dp_coverage_bins = 40;
  light.theta_grid = {0.0, 0.3, 0.6};
  decisions.push_back(JointOptimizer(light).optimize(inst));

  for (Decision& d : decisions) {
    SCOPED_TRACE(d.scheme);
    evaluate_decision(inst, d);
    ASSERT_EQ(d.predicted.size(), d.per_device.size());
    for (std::size_t i = 0; i < d.per_device.size(); ++i) {
      SCOPED_TRACE(i);
      expect_bit_equal(d.predicted[i],
                       evaluate_device(inst, static_cast<DeviceId>(i),
                                       d.per_device[i]));
    }
  }
}

}  // namespace
}  // namespace scalpel
