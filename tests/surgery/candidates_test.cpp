#include "surgery/exit_candidates.hpp"

#include <gtest/gtest.h>

#include "nn/executor.hpp"
#include "nn/models.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scalpel {
namespace {

TEST(ExitHead, ChwAttachGetsPoolingHead) {
  const auto head = make_exit_head(Shape{64, 8, 8}, 10);
  EXPECT_EQ(head.node(0).out_shape, (Shape{64, 8, 8}));
  EXPECT_EQ(head.node(head.output()).out_shape, (Shape{10}));
  // gavg -> fc -> softmax plus input = 4 nodes.
  EXPECT_EQ(head.size(), 4u);
}

TEST(ExitHead, FlatAttachSkipsPooling) {
  const auto head = make_exit_head(Shape{256}, 10);
  EXPECT_EQ(head.size(), 3u);
  EXPECT_EQ(head.node(head.output()).out_shape, (Shape{10}));
}

TEST(ExitHead, RejectsBadInputs) {
  EXPECT_THROW(make_exit_head(Shape{2, 3}, 10), ContractViolation);
  EXPECT_THROW(make_exit_head(Shape{64, 8, 8}, 0), ContractViolation);
}

TEST(ExitHead, ExecutesToDistribution) {
  const auto head = make_exit_head(Shape{16, 4, 4}, 10);
  const Executor ex(head, 5);
  Rng rng(1);
  const auto out = ex.run(Tensor::randn(Shape{16, 4, 4}, rng));
  EXPECT_NEAR(out.sum(), 1.0, 1e-5);
}

class CandidateModelTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CandidateModelTest, CandidatesAreValidAndOrdered) {
  const auto g = models::by_name(GetParam());
  ExitCandidateOptions opts;
  opts.num_classes = 10;
  const auto cands = find_exit_candidates(g, opts);
  ASSERT_FALSE(cands.empty()) << GetParam();
  double prev_depth = 0.0;
  for (const auto& c : cands) {
    EXPECT_GT(c.depth_fraction, prev_depth);
    EXPECT_LE(c.depth_fraction, kMaxExitDepth);
    EXPECT_GT(c.head_flops, 0);
    // Head input must match the attach activation.
    EXPECT_EQ(c.head.node(0).out_shape, g.node(c.attach).out_shape);
    prev_depth = c.depth_fraction;
  }
}

TEST_P(CandidateModelTest, CandidatesRespectSpacing) {
  const auto g = models::by_name(GetParam());
  ExitCandidateOptions opts;
  opts.min_spacing = 0.10;
  const auto cands = find_exit_candidates(g, opts);
  for (std::size_t i = 1; i < cands.size(); ++i) {
    EXPECT_GE(cands[i].depth_fraction - cands[i - 1].depth_fraction,
              opts.min_spacing - 1e-12);
  }
}

TEST_P(CandidateModelTest, CandidatesAttachAtCleanCuts) {
  const auto g = models::by_name(GetParam());
  const auto cands = find_exit_candidates(g);
  const auto cuts = g.clean_cuts();
  for (const auto& c : cands) {
    const bool found =
        std::any_of(cuts.begin(), cuts.end(), [&](const Graph::CutPoint& p) {
          return p.after == c.attach;
        });
    EXPECT_TRUE(found) << "candidate at non-cut node " << c.attach;
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, CandidateModelTest,
                         ::testing::Values("lenet5", "alexnet", "vgg16",
                                           "resnet18", "mobilenet_v1",
                                           "tiny_cnn"));

TEST(Candidates, MaxCandidatesHonored) {
  // vgg16 has more spaced clean cuts than the cap: the shallowest eight win.
  const auto g = models::vgg16();
  ExitCandidateOptions opts;
  opts.min_spacing = 0.0;
  const auto cands = find_exit_candidates(g, opts);
  EXPECT_EQ(cands.size(), kMaxExitCandidates);
}

TEST(Candidates, NoCandidateAtZeroDepth) {
  // An exit before any compute is useless; depth must be strictly positive.
  for (const auto& name : models::zoo_names()) {
    for (const auto& c : find_exit_candidates(models::by_name(name))) {
      EXPECT_GT(c.depth_fraction, 0.0) << name;
    }
  }
}

}  // namespace
}  // namespace scalpel
