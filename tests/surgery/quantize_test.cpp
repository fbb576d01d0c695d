#include <gtest/gtest.h>

#include <cmath>

#include "core/joint.hpp"
#include "core/objective.hpp"
#include "core/serialize.hpp"
#include "edge/builders.hpp"
#include "nn/kernels.hpp"
#include "nn/models.hpp"
#include "surgery/plan.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

TEST(QuantizeKernel, RoundTripErrorBoundedByHalfScale) {
  Rng rng(5);
  const auto t = Tensor::randn(Shape{16, 8, 8}, rng, 2.0f);
  const auto q = kernels::quantize_int8(t);
  const auto back = kernels::dequantize_int8(q);
  EXPECT_EQ(back.shape(), t.shape());
  EXPECT_LE(max_abs_diff(t, back), q.scale * 0.5 + 1e-6);
}

TEST(QuantizeKernel, PayloadIsQuarterSizePlusScale) {
  Rng rng(6);
  const auto t = Tensor::randn(Shape{64, 4, 4}, rng);
  const auto q = kernels::quantize_int8(t);
  EXPECT_EQ(q.bytes(), t.numel() + 4);
  EXPECT_EQ(q.bytes() * 4, t.shape().bytes() + 16);
}

TEST(QuantizeKernel, ZeroTensorStaysZero) {
  const auto t = Tensor::zeros(Shape{8});
  const auto q = kernels::quantize_int8(t);
  const auto back = kernels::dequantize_int8(q);
  EXPECT_EQ(back.sum(), 0.0);
}

TEST(QuantizeKernel, ExtremesMapToFullRange) {
  Tensor t(Shape{2});
  t.at(0) = 10.0f;
  t.at(1) = -10.0f;
  const auto q = kernels::quantize_int8(t);
  EXPECT_EQ(q.data[0], 127);
  EXPECT_EQ(q.data[1], -127);
}

struct PlanFixture {
  Graph g = models::tiny_cnn();
  std::vector<ExitCandidate> cands;
  AccuracyModel acc = AccuracyModel::for_model("tiny_cnn");
  PlanFixture() {
    ExitCandidateOptions opts;
    opts.num_classes = 10;
    cands = find_exit_candidates(g, opts);
  }
};

TEST(QuantizedPlan, ShrinksUploadAndCostsAccuracy) {
  PlanFixture f;
  SurgeryPlan plain;
  plain.partition_after = 0;
  SurgeryPlan quant = plain;
  quant.quantize_upload = true;
  const LinkSpec link{mbps(10.0), ms(1.0)};
  const PlanModel pm_plain(f.g, f.cands, plain, f.acc,
                           profiles::raspberry_pi4(), profiles::edge_gpu_t4(),
                           link);
  const PlanModel pm_quant(f.g, f.cands, quant, f.acc,
                           profiles::raspberry_pi4(), profiles::edge_gpu_t4(),
                           link);
  EXPECT_EQ(pm_quant.breakdown().upload_bytes,
            pm_plain.breakdown().upload_bytes / 4 + 4);
  // The smaller payload is the only difference in timing, so it shows in
  // the latency.
  EXPECT_LT(pm_quant.breakdown().expected_latency,
            pm_plain.breakdown().expected_latency);
  EXPECT_LT(pm_quant.breakdown().expected_accuracy,
            pm_plain.breakdown().expected_accuracy);
  EXPECT_NEAR(pm_quant.breakdown().expected_accuracy,
              pm_plain.breakdown().expected_accuracy - f.acc.int8_penalty,
              1e-9);
}

TEST(QuantizedPlan, DeviceOnlyUnaffected) {
  PlanFixture f;
  SurgeryPlan plan;
  plan.device_only = true;
  plan.quantize_upload = true;  // moot without a cut
  const PlanModel pm(f.g, f.cands, plan, f.acc, profiles::smartphone(),
                     profiles::edge_cpu(), LinkSpec{1.0, 0.0});
  EXPECT_EQ(pm.breakdown().upload_bytes, 0);
  EXPECT_NEAR(pm.breakdown().expected_accuracy, f.acc.a_max, 1e-12);
}

TEST(QuantizedJoint, NeverWorseThanPlainJoint) {
  // Quantization only adds options; with it enabled the optimizer's
  // predicted latency must not regress (same seeds, same everything else).
  const ProblemInstance instance(clusters::small_lab());
  JointOptions plain;
  plain.max_iterations = 3;
  plain.dp_coverage_bins = 50;
  plain.theta_grid = {0.0, 0.3, 0.6};
  JointOptions quant = plain;
  quant.enable_quantized_upload = true;
  const auto d_plain = JointOptimizer(plain).optimize(instance);
  const auto d_quant = JointOptimizer(quant).optimize(instance);
  ASSERT_TRUE(std::isfinite(d_plain.mean_latency));
  EXPECT_LE(d_quant.mean_latency, d_plain.mean_latency * 1.001);
  // Accuracy floors still hold.
  for (const auto& p : d_quant.predicted) {
    EXPECT_TRUE(p.meets_accuracy);
  }
}

TEST(QuantizedPlan, SerializationRoundTrip) {
  SurgeryPlan plan;
  plan.partition_after = 5;
  plan.quantize_upload = true;
  const auto back = serialize::plan_from_json(serialize::to_json(plan));
  EXPECT_TRUE(back.quantize_upload);
  // Legacy documents without the field default to false.
  auto j = serialize::to_json(plan);
  Json stripped = Json::object();
  stripped.set("device_only", Json::boolean(false));
  stripped.set("partition_after", Json::number(5));
  stripped.set("exits", Json::array());
  EXPECT_FALSE(serialize::plan_from_json(stripped).quantize_upload);
}

}  // namespace
}  // namespace scalpel
