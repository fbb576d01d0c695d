#pragma once

#include <cstdint>
#include <vector>

#include "nn/graph.hpp"

namespace scalpel {

/// One place where an early-exit head can be grafted onto a backbone. The
/// head is a standalone Graph whose input node matches the attach point's
/// activation, so the (backbone prefix, head) pair executes compositionally.
struct ExitCandidate {
  NodeId attach = -1;          // backbone node the head hangs off
  double depth_fraction = 0.0;  // prefix FLOPs / total FLOPs at the attach
  Graph head;                  // classifier head (style-dependent)
  std::int64_t head_flops = 0;
  /// Additive conditional-accuracy bonus of this head over the light
  /// baseline (conv heads extract more from the same activation). Clamped
  /// to the model's selective ceiling during evaluation.
  double accuracy_bonus = 0.0;
};

/// Classifier-head architecture grafted at an exit.
enum class ExitHeadStyle {
  /// Global-average pool -> FC -> softmax. Near-free, the BranchyNet
  /// default and this repo's base configuration.
  kLight,
  /// 3x3 conv (128ch) -> gavg -> FC -> softmax. ~1.5% conditional-accuracy
  /// bonus for a modest per-exit compute cost.
  kConv,
};

/// Attach points deeper than this depth fraction are ignored (an exit at
/// 97% depth saves nothing over the final exit).
inline constexpr double kMaxExitDepth = 0.95;

struct ExitCandidateOptions {
  std::int64_t num_classes = 1000;
  ExitHeadStyle head_style = ExitHeadStyle::kLight;
  /// Candidates must be at least this far apart in depth fraction.
  double min_spacing = 0.05;
  std::size_t max_candidates = 8;
};

/// Enumerates clean cuts of the backbone and synthesizes a classifier head at
/// each, subject to the spacing limit and kMaxExitDepth. Candidates are in
/// depth order.
std::vector<ExitCandidate> find_exit_candidates(
    const Graph& backbone, const ExitCandidateOptions& opts = {});

/// Builds the classifier head for an activation shape (CHW: global-average
/// pool then FC; flat: FC directly). kConv prepends a 3x3 conv stage on CHW
/// attach points (flat attach points fall back to the light head).
Graph make_exit_head(const Shape& attach_shape, std::int64_t num_classes,
                     ExitHeadStyle style = ExitHeadStyle::kLight);

}  // namespace scalpel
