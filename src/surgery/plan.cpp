#include "surgery/plan.hpp"

#include <algorithm>

#include "profile/latency_model.hpp"
#include "util/assert.hpp"

namespace scalpel {

std::int64_t wire_bytes(std::int64_t activation_bytes, bool quantize) {
  return quantize ? activation_bytes / 4 + 4 : activation_bytes;
}

PlanModel::PlanModel(const Graph& backbone,
                     const std::vector<ExitCandidate>& candidates,
                     SurgeryPlan plan, const AccuracyModel& acc,
                     const ComputeProfile& device,
                     const ComputeProfile& server, const LinkSpec& link,
                     const DifficultyModel& difficulty)
    : plan_(std::move(plan)), link_(link) {
  validate_policy(plan_.policy, candidates);
  const NodeId cut = plan_.partition_after;
  if (!plan_.device_only) {
    SCALPEL_REQUIRE(backbone.is_clean_cut(cut),
                    "partition_after must be a clean cut");
    upload_bytes_ =
        wire_bytes(backbone.node(cut).out_shape.bytes(), plan_.quantize_upload);
  }

  // Walk the enabled exits in depth order, accumulating time on whichever
  // side of the cut each segment/head executes.
  double device_acc = 0.0;   // device time accumulated so far along the path
  double server_acc = 0.0;   // server time accumulated past the cut
  bool crossed = false;
  NodeId prev_attach = 0;
  double covered = 0.0;

  auto advance_to = [&](NodeId target) {
    // Adds segment (prev_attach, target] to the correct side(s), splitting
    // at the cut if it falls inside the segment.
    if (plan_.device_only || target <= cut) {
      device_acc +=
          LatencyModel::range_latency(backbone, prev_attach, target, device);
    } else if (prev_attach >= cut) {
      server_acc +=
          LatencyModel::range_latency(backbone, prev_attach, target, server);
      crossed = true;
    } else {
      device_acc +=
          LatencyModel::range_latency(backbone, prev_attach, cut, device);
      server_acc +=
          LatencyModel::range_latency(backbone, cut, target, server);
      crossed = true;
    }
    prev_attach = target;
  };

  for (const auto& choice : plan_.policy.exits) {
    const auto& cand = candidates[choice.candidate];
    advance_to(cand.attach);
    // Heads run for every task *reaching* this exit, so bake the head into
    // the running accumulator of its side (tasks passing the exit also paid
    // it).
    (crossed ? server_acc : device_acc) +=
        LatencyModel::graph_latency(cand.head, crossed ? server : device);
    ExitRow row;
    row.limit = acc.capability(cand.depth_fraction) * (1.0 - choice.theta);
    row.device_time = device_acc;
    row.server_time = server_acc;
    row.offloaded = crossed;
    row.correct_prob = std::min(
        acc.selective_ceiling,
        acc.conditional_accuracy(cand.depth_fraction, choice.theta));
    if (row.offloaded && plan_.quantize_upload) {
      row.correct_prob = std::max(0.0, row.correct_prob - acc.int8_penalty);
    }
    rows_.push_back(row);
    covered = std::max(covered, row.limit);
  }
  advance_to(backbone.output());
  ExitRow final_row;
  final_row.limit = 1.0;
  final_row.device_time = device_acc;
  final_row.server_time = server_acc;
  final_row.offloaded = crossed;
  final_row.correct_prob = acc.a_max;
  if (final_row.offloaded && plan_.quantize_upload) {
    final_row.correct_prob =
        std::max(0.0, final_row.correct_prob - acc.int8_penalty);
  }
  rows_.push_back(final_row);

  // Analytical breakdown: integrate over the difficulty distribution (the
  // mass each exit captures is its interval's measure under the CDF).
  double prev_limit = 0.0;
  for (const auto& row : rows_) {
    const double hi = std::max(prev_limit, std::min(1.0, row.limit));
    const double mass = difficulty.cdf(hi) - difficulty.cdf(prev_limit);
    prev_limit = hi;
    if (mass <= 0.0) continue;
    const double upload =
        row.offloaded ? transfer_latency(upload_bytes_, link_.bandwidth,
                                         link_.rtt)
                      : 0.0;
    breakdown_.expected_latency +=
        mass * (row.device_time + upload + row.server_time);
    breakdown_.expected_accuracy += mass * row.correct_prob;
    breakdown_.expected_device_time += mass * row.device_time;
    breakdown_.expected_server_time += mass * row.server_time;
    breakdown_.device_time_m2 += mass * row.device_time * row.device_time;
    if (row.offloaded) {
      breakdown_.offload_prob += mass;
      breakdown_.server_time_cond_m1 += mass * row.server_time;
      breakdown_.server_time_cond_m2 +=
          mass * row.server_time * row.server_time;
    }
  }
  if (breakdown_.offload_prob > 0.0) {
    breakdown_.server_time_cond_m1 /= breakdown_.offload_prob;
    breakdown_.server_time_cond_m2 /= breakdown_.offload_prob;
  }
  breakdown_.upload_bytes = plan_.device_only ? 0 : upload_bytes_;
}

TaskPhases PlanModel::phases_for(double difficulty) const {
  SCALPEL_REQUIRE(difficulty >= 0.0 && difficulty < 1.0,
                  "difficulty must be in [0, 1)");
  TaskPhases out;
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    const auto& row = rows_[i];
    if (difficulty < row.limit || i + 1 == rows_.size()) {
      out.device_time = row.device_time;
      out.server_time = row.server_time;
      out.offloaded = row.offloaded;
      out.upload_bytes = row.offloaded ? upload_bytes_ : 0;
      out.exit_index = (i + 1 == rows_.size()) ? -1 : static_cast<int>(i);
      out.correct_prob = row.correct_prob;
      return out;
    }
  }
  SCALPEL_REQUIRE(false, "unreachable: final row has limit 1.0");
}

}  // namespace scalpel
