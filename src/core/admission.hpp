#pragma once

#include <vector>

#include "core/decision.hpp"
#include "core/instance.hpp"

namespace scalpel {

/// Admission control: when a deployment is overloaded even under the best
/// joint decision, *some* traffic must be refused at the device (frame
/// dropping / sampling in the motivating video-analytics apps). This module
/// computes, per device, the maximum sustainable arrival rate under a given
/// decision, and proposes a fair throttling profile that restores stability.
namespace admission {

/// Largest arrival rate (tasks/s) device `id` can sustain under `decision`
/// with every stage of its pipeline stable, holding the other devices'
/// grants fixed. Every stage's utilization is linear in the rate, so this is
/// a closed form: headroom / (per-task load of the most loaded stage). It
/// reads no arrival rate, so it does not depend on the offered load. +inf
/// when no stage carries any load.
double max_sustainable_rate(const ProblemInstance& instance, DeviceId id,
                            const DeviceDecision& decision,
                            double utilization_headroom);

struct ThrottlePlan {
  /// Per-device admitted rate (tasks/s), <= the offered arrival rate.
  std::vector<double> admitted_rate;
  /// Fraction of offered traffic admitted overall (rate-weighted).
  double admitted_fraction = 1.0;
  /// True if any device had to be throttled.
  bool throttled = false;
};

/// Uniform-headroom throttling: every unstable device's rate is reduced to
/// `utilization_headroom` times its sustainable maximum; stable devices are
/// untouched. Restores per-device stability by construction (shared-resource
/// coupling is already captured by the decision's grants).
ThrottlePlan propose_throttle(const ProblemInstance& instance,
                              const Decision& decision,
                              double utilization_headroom);

}  // namespace admission
}  // namespace scalpel
