#include "sim/compiled_device.hpp"

#include <cstring>

#include "util/assert.hpp"

namespace scalpel {
namespace {

void append_raw(std::string& key, const void* p, std::size_t n) {
  key.append(static_cast<const char*>(p), n);
}

void append_f64(std::string& key, double v) { append_raw(key, &v, sizeof v); }

void append_u64(std::string& key, std::uint64_t v) {
  append_raw(key, &v, sizeof v);
}

void append_profile(std::string& key, const ComputeProfile& p) {
  key.append(p.name);
  key.push_back('\0');
  append_f64(key, p.peak_flops);
  append_f64(key, p.mem_bw);
  append_f64(key, p.layer_overhead);
  for (const auto& [kind, eff] : p.efficiency) {
    append_u64(key, static_cast<std::uint64_t>(kind));
    append_f64(key, eff);
  }
}

/// Serializes every value PlanModel construction reads into `key`. Two
/// equal keys imply bitwise-identical compiled models, so sharing one
/// instance is exact.
void cache_key(const ModelBundle& bundle, const SurgeryPlan& plan,
               const ComputeProfile& device, const ComputeProfile& server,
               const LinkSpec& link, const DifficultyModel& difficulty,
               std::string& key) {
  key.clear();
  // The bundle (graph + candidates + accuracy model) is shared per model
  // name and outlives every PlanModel, so its address is its identity.
  append_u64(key, reinterpret_cast<std::uintptr_t>(&bundle));
  append_u64(key, static_cast<std::uint64_t>(plan.partition_after));
  append_u64(key, (plan.device_only ? 1u : 0u) |
                      (plan.quantize_upload ? 2u : 0u));
  append_u64(key, plan.policy.exits.size());
  for (const auto& e : plan.policy.exits) {
    append_u64(key, e.candidate);
    append_f64(key, e.theta);
  }
  append_profile(key, device);
  append_profile(key, server);
  append_f64(key, link.bandwidth);
  append_f64(key, link.rtt);
  append_f64(key, difficulty.a());
  append_f64(key, difficulty.b());
}

}  // namespace

std::shared_ptr<const PlanModel> PlanModelCache::get_or_compile(
    const ModelBundle& bundle, const SurgeryPlan& plan,
    const ComputeProfile& device, const ComputeProfile& server,
    const LinkSpec& link, const DifficultyModel& difficulty) {
  // The key is built in a reused buffer, so a hit allocates nothing.
  cache_key(bundle, plan, device, server, link, difficulty, key_);
  auto it = cache_.find(key_);
  if (it != cache_.end()) return it->second;
  auto model = std::make_shared<const PlanModel>(
      bundle.graph, bundle.candidates, plan, bundle.accuracy, device, server,
      link, difficulty);
  cache_.emplace(key_, model);
  return model;
}

void PlanModelCache::evict_unused() {
  std::erase_if(cache_,
                [](const auto& entry) { return entry.second.use_count() == 1; });
}

void compile_device_decision(const ProblemInstance& instance, DeviceId dev,
                             const DeviceDecision& dd, CompiledDevice& cd,
                             PlanModelCache& cache) {
  const auto& device = instance.topology().device(dev);
  const auto& bundle = instance.bundle_for(dev);
  cd.device_only = dd.plan.device_only;
  LinkSpec link;
  if (dd.plan.device_only) {
    link.bandwidth = 1.0;
    cd.server = -1;
    cd.share = 0.0;
    cd.bandwidth = 0.0;
    cd.rtt = 0.0;
  } else {
    SCALPEL_REQUIRE(dd.server >= 0, "offloading decision needs a server");
    SCALPEL_REQUIRE(dd.bandwidth > 0.0 && dd.compute_share > 0.0,
                    "offloading decision needs positive grants");
    cd.server = dd.server;
    cd.share = dd.compute_share;
    cd.bandwidth = dd.bandwidth;
    cd.rtt = instance.topology().path_rtt(dev, dd.server);
    link.bandwidth = dd.bandwidth;
    link.rtt = cd.rtt;
  }
  const ComputeProfile& server_profile =
      dd.plan.device_only ? device.compute
                          : instance.topology().server(dd.server).compute;
  cd.plan = cache.get_or_compile(bundle, dd.plan, device.compute,
                                 server_profile, link, device.difficulty);
  if (dd.plan.device_only) {
    cd.fallback.reset();
  } else {
    // Same surgery with the cut disabled: what the device runs when a fault
    // strands its offloaded stream.
    SurgeryPlan local = dd.plan;
    local.device_only = true;
    LinkSpec no_link;
    no_link.bandwidth = 1.0;
    cd.fallback = cache.get_or_compile(bundle, local, device.compute,
                                       device.compute, no_link,
                                       device.difficulty);
  }
}

}  // namespace scalpel
