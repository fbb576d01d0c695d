#include "nn/models.hpp"

#include "nn/executor.hpp"
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include "util/assert.hpp"

namespace scalpel {
namespace {

/// Published reference figures (FLOPs = 2x MACs convention, params in
/// millions). Tolerances absorb spatial rounding differences (e.g. 55 vs 56
/// after an unpadded pool).
struct Reference {
  const char* name;
  double gflops;
  double mparams;
  double tol_frac;
};

// Print a reference as its model name. gtest's default byte dump includes
// the `name` pointer, so the discovered test names would change with the
// load address on every run.
void PrintTo(const Reference& ref, std::ostream* os) { *os << ref.name; }

class ZooReferenceTest : public ::testing::TestWithParam<Reference> {};

TEST_P(ZooReferenceTest, FlopsMatchPublished) {
  const auto ref = GetParam();
  const auto g = models::by_name(ref.name);
  const double gflops = static_cast<double>(g.total_flops()) / 1e9;
  EXPECT_NEAR(gflops, ref.gflops, ref.gflops * ref.tol_frac)
      << ref.name << " computed " << gflops << " GFLOPs";
}

TEST_P(ZooReferenceTest, ParamsMatchPublished) {
  const auto ref = GetParam();
  const auto g = models::by_name(ref.name);
  const double mparams = static_cast<double>(g.total_params()) / 1e6;
  EXPECT_NEAR(mparams, ref.mparams, ref.mparams * ref.tol_frac)
      << ref.name << " computed " << mparams << " M params";
}

INSTANTIATE_TEST_SUITE_P(
    Published, ZooReferenceTest,
    // AlexNet: 2.27 GFLOPs is the ungrouped (Caffe bvlc_alexnet) variant at
    // 1.14 GMACs; the often-quoted 0.72 GMACs is the two-GPU grouped net.
    ::testing::Values(Reference{"alexnet", 2.27, 61.0, 0.15},
                      Reference{"vgg16", 30.9, 138.4, 0.10},
                      Reference{"vgg19", 39.2, 143.7, 0.10},
                      Reference{"resnet18", 3.6, 11.7, 0.15},
                      Reference{"resnet34", 7.3, 21.8, 0.15},
                      Reference{"resnet50", 8.2, 25.6, 0.15},
                      Reference{"squeezenet", 1.42, 1.25, 0.25},
                      Reference{"googlenet", 3.0, 6.6, 0.20},
                      Reference{"mobilenet_v1", 1.14, 4.2, 0.15},
                      Reference{"tiny_yolo", 7.5, 15.8, 0.15}));

TEST(Models, LenetShapes) {
  const auto g = models::lenet5();
  EXPECT_EQ(g.node(0).out_shape, (Shape{1, 28, 28}));
  EXPECT_EQ(g.node(g.output()).out_shape, (Shape{10}));
  // LeNet-5 has ~61k params.
  EXPECT_NEAR(static_cast<double>(g.total_params()), 61706.0, 5000.0);
}

TEST(Models, EveryZooModelEndsWithClassesOrDetection) {
  for (const auto& name : models::zoo_names()) {
    const auto g = models::by_name(name);
    const auto& out = g.node(g.output()).out_shape;
    EXPECT_GE(out.numel(), 10) << name;
    EXPECT_GT(g.total_flops(), 0) << name;
  }
}

TEST(Models, ZooMatchesNames) {
  const auto zoo = models::zoo();
  const auto names = models::zoo_names();
  ASSERT_EQ(zoo.size(), names.size());
  for (std::size_t i = 0; i < zoo.size(); ++i) {
    EXPECT_EQ(zoo[i].name(), names[i]);
  }
}

TEST(Models, ByNameRejectsUnknown) {
  EXPECT_THROW(models::by_name("resnet999"), ContractViolation);
}

TEST(Models, ResolutionParameterScalesActivations) {
  const auto small = models::mobilenet_v1(1000, 64);
  const auto big = models::mobilenet_v1(1000, 224);
  EXPECT_LT(small.total_flops(), big.total_flops());
  // Parameters of conv layers are resolution independent; only the fc input
  // stays the same here because mobilenet ends in global average pooling.
  EXPECT_EQ(small.total_params(), big.total_params());
}

TEST(Models, VggDepthStructure) {
  const auto g = models::vgg16();
  // 13 conv + 3 fc = 16 weighted layers.
  int convs = 0;
  int fcs = 0;
  for (const auto& n : g.nodes()) {
    if (n.spec.kind == LayerKind::kConv) ++convs;
    if (n.spec.kind == LayerKind::kFC) ++fcs;
  }
  EXPECT_EQ(convs, 13);
  EXPECT_EQ(fcs, 3);
}

TEST(Models, Resnet18Structure) {
  const auto g = models::resnet18();
  int convs = 0;
  int adds = 0;
  for (const auto& n : g.nodes()) {
    if (n.spec.kind == LayerKind::kConv) ++convs;
    if (n.spec.kind == LayerKind::kAdd) ++adds;
  }
  // 1 stem + 16 block convs + 3 downsample convs = 20; 8 residual adds.
  EXPECT_EQ(convs, 20);
  EXPECT_EQ(adds, 8);
}

TEST(Models, MobilenetDepthwiseCount) {
  const auto g = models::mobilenet_v1();
  int dws = 0;
  for (const auto& n : g.nodes()) {
    if (n.spec.kind == LayerKind::kDWConv) ++dws;
  }
  EXPECT_EQ(dws, 13);
}

TEST(Models, TinyCnnIsCheapEnoughToExecuteInTests) {
  const auto g = models::tiny_cnn();
  EXPECT_LT(g.total_flops(), 20e6);
}

TEST(Models, CustomClassCounts) {
  const auto g = models::alexnet(37);
  EXPECT_EQ(g.node(g.output()).out_shape, (Shape{37}));
}

TEST(Models, Resnet50UsesBottlenecks) {
  const auto g = models::resnet50();
  // 1 stem + 3*(3+4+6+3) block convs + 4 downsample convs = 53 convs.
  int convs = 0;
  for (const auto& n : g.nodes()) {
    if (n.spec.kind == LayerKind::kConv) ++convs;
  }
  EXPECT_EQ(convs, 53);
  // Final stage outputs 2048 channels (512 * expansion 4).
  const auto gavg = g.find("gavg");
  ASSERT_TRUE(gavg.has_value());
  EXPECT_EQ(g.node(*gavg).out_shape, (Shape{2048}));
}

TEST(Models, Resnet34DeeperThanResnet18) {
  EXPECT_GT(models::resnet34().total_flops(), models::resnet18().total_flops());
  EXPECT_GT(models::resnet34().total_params(),
            models::resnet18().total_params());
}

TEST(Models, SqueezenetFireModulesConcatenate) {
  const auto g = models::squeezenet();
  int concats = 0;
  for (const auto& n : g.nodes()) {
    if (n.spec.kind == LayerKind::kConcat) ++concats;
  }
  EXPECT_EQ(concats, 8);  // fire2..fire9
  // Fire branches restrict clean cuts: far fewer than node count.
  EXPECT_LE(g.clean_cuts().size(), g.size() / 2);
}

TEST(Models, GooglenetInceptionStructure) {
  const auto g = models::googlenet();
  int concats = 0;
  for (const auto& n : g.nodes()) {
    if (n.spec.kind == LayerKind::kConcat) ++concats;
  }
  EXPECT_EQ(concats, 9);  // 3a-3b, 4a-4e, 5a-5b
  // Four-way concat output channels for 3a: 64+128+32+32 = 256.
  const auto cat = g.find("inc1_cat");
  ASSERT_TRUE(cat.has_value());
  EXPECT_EQ(g.node(*cat).out_shape[0], 256);
}

TEST(Models, GooglenetExecutesAtLowResolution) {
  const auto g = models::googlenet(10, 64);
  const Executor ex(g, 8);
  Rng rng(4);
  const auto out = ex.run(Tensor::randn(g.node(0).out_shape, rng, 0.5f));
  EXPECT_EQ(out.shape(), (Shape{10}));
  EXPECT_NEAR(out.sum(), 1.0, 1e-5);
}

TEST(Models, SqueezenetExecutesAtLowResolution) {
  const auto g = models::squeezenet(10, 64);
  const Executor ex(g, 3);
  Rng rng(1);
  const auto out = ex.run(Tensor::randn(g.node(0).out_shape, rng, 0.5f));
  EXPECT_EQ(out.shape(), (Shape{10}));
  EXPECT_NEAR(out.sum(), 1.0, 1e-5);
}

TEST(Models, Resnet50PartitionEqualityOnSpotCheckedCuts) {
  const auto g = models::resnet50(10, 32);
  const Executor ex(g, 4);
  Rng rng(2);
  const auto in = Tensor::randn(g.node(0).out_shape, rng, 0.5f);
  const auto full = ex.run(in);
  const auto cuts = g.clean_cuts();
  ASSERT_GT(cuts.size(), 2u);
  const auto& mid = cuts[cuts.size() / 2];
  const auto boundary = ex.run_prefix(in, mid.after);
  const auto suffix = ex.run_range(boundary, mid.after, g.output());
  EXPECT_LT(max_abs_diff(full, suffix), 1e-6);
}

}  // namespace
}  // namespace scalpel
