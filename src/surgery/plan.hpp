#pragma once

#include <vector>

#include "surgery/difficulty.hpp"
#include "surgery/exit_policy.hpp"
#include "surgery/partition.hpp"

namespace scalpel {

/// The full "model surgery" decision for one device/model pair: which exits
/// are enabled (with thresholds) and where the backbone is cut between the
/// device and its edge server.
struct SurgeryPlan {
  ExitPolicy policy;
  /// Clean-cut node after which execution moves to the server. Ignored when
  /// device_only is true.
  NodeId partition_after = 0;
  bool device_only = false;
  /// Extension: ship the cut activation as symmetric INT8 (1/4 the bytes,
  /// small accuracy penalty on offloaded tasks). See kernels::quantize_int8
  /// for the executable counterpart.
  bool quantize_upload = false;

  bool operator==(const SurgeryPlan&) const = default;
};

/// Bytes one offloaded task ships across a cut whose activation is
/// `activation_bytes`: a quantized upload carries the INT8 payload plus the
/// 4-byte scale (see kernels::QuantizedTensor).
std::int64_t wire_bytes(std::int64_t activation_bytes, bool quantize);

/// Expected per-task behaviour of a SurgeryPlan under given device/server
/// capability and link. All times in seconds.
struct PlanBreakdown {
  double expected_latency = 0.0;
  double expected_accuracy = 0.0;
  double offload_prob = 0.0;         // P(task crosses the cut)
  double expected_device_time = 0.0;
  double expected_server_time = 0.0;
  std::int64_t upload_bytes = 0;     // payload at the cut (wire_bytes)
  /// Second moment of the on-device service time (all tasks) — feeds the
  /// M/G/1 device-queue model.
  double device_time_m2 = 0.0;
  /// Conditional first/second moments of the full-speed server service time
  /// given the task offloads — feed the M/G/1 server-queue model.
  double server_time_cond_m1 = 0.0;
  double server_time_cond_m2 = 0.0;
};

/// Per-task realization for the discrete-event simulator: sampled from the
/// same model the analytical breakdown integrates over.
struct TaskPhases {
  double device_time = 0.0;
  double server_time = 0.0;     // at the *reference* server share
  std::int64_t upload_bytes = 0;  // 0 when the task exits on-device
  bool offloaded = false;
  int exit_index = -1;          // enabled-exit index; -1 = final exit
  double correct_prob = 0.0;
};

/// Compiled view of a SurgeryPlan: precomputes per-exit coverage intervals
/// and phase latencies so both the analytical evaluator and the simulator
/// draw from one set of numbers. The canonical objective evaluator for the
/// joint optimizer and every baseline.
class PlanModel {
 public:
  /// `server` must already reflect the compute share granted to this device
  /// (use ComputeProfile::scaled). The referenced backbone/candidates must
  /// outlive the PlanModel.
  PlanModel(const Graph& backbone, const std::vector<ExitCandidate>& candidates,
            SurgeryPlan plan, const AccuracyModel& acc,
            const ComputeProfile& device, const ComputeProfile& server,
            const LinkSpec& link, const DifficultyModel& difficulty = {});

  const PlanBreakdown& breakdown() const { return breakdown_; }
  const SurgeryPlan& plan() const { return plan_; }

  /// Phase durations for a task of the given difficulty in [0, 1).
  TaskPhases phases_for(double difficulty) const;

  /// Bernoulli-correctness probability marginalized over difficulty.
  double expected_accuracy() const { return breakdown_.expected_accuracy; }

 private:
  struct ExitRow {
    double limit = 0.0;        // difficulty coverage boundary
    double device_time = 0.0;  // total on-device time if exiting here
    double server_time = 0.0;  // server time if exiting here (0 if on-device)
    bool offloaded = false;
    double correct_prob = 0.0;
  };

  SurgeryPlan plan_;
  LinkSpec link_;
  std::vector<ExitRow> rows_;  // enabled exits in depth order, then final
  std::int64_t upload_bytes_ = 0;
  PlanBreakdown breakdown_;
};

}  // namespace scalpel
