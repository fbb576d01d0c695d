#include "surgery/exit_candidates.hpp"

#include "util/assert.hpp"

namespace scalpel {

Graph make_exit_head(const Shape& attach_shape, std::int64_t num_classes) {
  SCALPEL_REQUIRE(num_classes > 0, "exit head needs positive class count");
  Graph head("exit_head");
  const NodeId in = head.add(LayerSpec::input(attach_shape));
  NodeId cur = in;
  if (attach_shape.rank() == 3) {
    cur = head.add(LayerSpec::global_avgpool("head_gavg"), {cur});
  } else {
    SCALPEL_REQUIRE(attach_shape.rank() == 1,
                    "exit head expects CHW or flat attach activation");
  }
  cur = head.add(LayerSpec::fc(num_classes, "head_fc"), {cur});
  head.add(LayerSpec::softmax("head_softmax"), {cur});
  return head;
}

std::vector<ExitCandidate> find_exit_candidates(
    const Graph& backbone, const ExitCandidateOptions& opts) {
  SCALPEL_REQUIRE(backbone.total_flops() > 0, "backbone has no compute");
  std::vector<ExitCandidate> out;
  const double total = static_cast<double>(backbone.total_flops());
  double last_depth = -1.0;
  for (const auto& cut : backbone.clean_cuts()) {
    const auto& shape = backbone.node(cut.after).out_shape;
    if (shape.rank() != 3 && shape.rank() != 1) continue;
    const double depth = static_cast<double>(cut.prefix_flops) / total;
    if (depth <= 0.0) continue;  // an exit before any compute is useless
    if (depth > kMaxExitDepth) break;
    if (last_depth >= 0.0 && depth - last_depth < opts.min_spacing) continue;
    ExitCandidate c;
    c.attach = cut.after;
    c.depth_fraction = depth;
    c.head = make_exit_head(shape, opts.num_classes);
    c.head_flops = c.head.total_flops();
    out.push_back(std::move(c));
    last_depth = depth;
    if (out.size() >= kMaxExitCandidates) break;
  }
  return out;
}

}  // namespace scalpel
