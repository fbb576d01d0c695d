#pragma once

#include <vector>

#include "edge/cluster.hpp"
#include "surgery/plan.hpp"

namespace scalpel {

/// The complete control decision for one device: its model surgery and its
/// resource grant. Produced by the joint optimizer and by every baseline, so
/// all schemes are compared through the same evaluator and simulator.
struct DeviceDecision {
  SurgeryPlan plan;
  /// Target edge server; must be valid unless plan.device_only.
  ServerId server = -1;
  /// Fraction of the target server's capacity granted to this device's
  /// offloaded stream, in (0, 1]. Unused when device_only.
  double compute_share = 0.0;
  /// Uplink bytes/s granted within the device's cell. Unused if device_only.
  double bandwidth = 0.0;

  bool operator==(const DeviceDecision&) const = default;
};

/// Predicted per-device metrics attached to a decision by the evaluator.
struct DevicePrediction {
  /// Includes queueing at all three stages: M/G/1 at the device, M/D/1 on
  /// the upload and M/G/1 on the server's compute-share slice.
  double expected_latency = 0.0;
  double expected_accuracy = 0.0;
  double offload_prob = 0.0;
  /// All three queues (device, upload, server) are stable under this
  /// decision.
  bool stable = true;
  bool meets_accuracy = true;
};

struct Decision {
  std::vector<DeviceDecision> per_device;
  std::vector<DevicePrediction> predicted;
  /// Rate-weighted mean of expected latencies (+inf if any device unstable).
  double mean_latency = 0.0;
  /// Name of the scheme that produced it (for bench tables).
  std::string scheme;
};

}  // namespace scalpel
