#pragma once

#include <cstddef>
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
  Graph head;                  // classifier head
  std::int64_t head_flops = 0;
};

/// Attach points deeper than this depth fraction are ignored (an exit at
/// 97% depth saves nothing over the final exit).
inline constexpr double kMaxExitDepth = 0.95;

/// At most this many candidates per backbone: the shallowest ones, since
/// enumeration runs in depth order.
inline constexpr std::size_t kMaxExitCandidates = 8;

struct ExitCandidateOptions {
  std::int64_t num_classes = 1000;
  /// Candidates must be at least this far apart in depth fraction.
  double min_spacing = 0.05;
};

/// Enumerates clean cuts of the backbone and synthesizes a classifier head at
/// each, subject to the spacing limit, kMaxExitDepth and kMaxExitCandidates.
/// Candidates are in depth order.
std::vector<ExitCandidate> find_exit_candidates(
    const Graph& backbone, const ExitCandidateOptions& opts = {});

/// Builds the classifier head for an activation shape: global-average pool
/// then FC on a CHW attach point, FC directly on a flat one. This is the
/// near-free BranchyNet head.
Graph make_exit_head(const Shape& attach_shape, std::int64_t num_classes);

}  // namespace scalpel
