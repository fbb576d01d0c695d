#include "sim/compiled_device.hpp"

namespace scalpel {

void compile_device_decision(const ProblemInstance& instance, DeviceId dev,
                             const DeviceDecision& dd, CompiledDevice& cd,
                             PlanModelCache& cache) {
  // The evaluator's PlanModel, so the engine samples what was predicted.
  cd.plan = cache.get_or_compile(instance, dev, dd);
  cd.device_only = dd.plan.device_only;
  if (dd.plan.device_only) {
    cd.server = -1;
    cd.share = 0.0;
    cd.bandwidth = 0.0;
    cd.rtt = 0.0;
    cd.fallback.reset();
    return;
  }
  cd.server = dd.server;
  cd.share = dd.compute_share;
  cd.bandwidth = dd.bandwidth;
  cd.rtt = instance.topology().path_rtt(dev, dd.server);
  // Same surgery with the cut disabled: what the device runs when a fault
  // strands its offloaded stream.
  DeviceDecision local;
  local.plan = dd.plan;
  local.plan.device_only = true;
  cd.fallback = cache.get_or_compile(instance, dev, local);
}

}  // namespace scalpel
