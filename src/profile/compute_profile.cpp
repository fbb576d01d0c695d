#include "profile/compute_profile.hpp"

#include <initializer_list>
#include <utility>

#include "util/assert.hpp"
#include "util/units.hpp"

namespace scalpel {

ComputeProfile ComputeProfile::scaled(double share) const {
  SCALPEL_REQUIRE(share > 0.0 && share <= 1.0, "share must be in (0, 1]");
  ComputeProfile p = *this;
  p.peak_flops *= share;
  p.mem_bw *= share;
  return p;
}

namespace profiles {
namespace {

/// The table with `entries` set and every other kind at the default.
EfficiencyTable efficiency_table(
    std::initializer_list<std::pair<LayerKind, double>> entries) {
  EfficiencyTable t;
  for (const auto& [kind, value] : entries) t[kind] = value;
  return t;
}

/// Shared efficiency shape: GEMM-style ops come close to peak; depthwise and
/// elementwise ops are memory bound and see a fraction of it.
EfficiencyTable cpu_efficiency() {
  return efficiency_table({
      {LayerKind::kConv, 0.55},   {LayerKind::kDWConv, 0.18},
      {LayerKind::kFC, 0.40},     {LayerKind::kMaxPool, 0.15},
      {LayerKind::kAvgPool, 0.15},{LayerKind::kGlobalAvgPool, 0.15},
      {LayerKind::kReLU, 0.10},   {LayerKind::kBatchNorm, 0.12},
      {LayerKind::kAdd, 0.10},    {LayerKind::kSoftmax, 0.10},
  });
}

EfficiencyTable gpu_efficiency() {
  return efficiency_table({
      {LayerKind::kConv, 0.70},   {LayerKind::kDWConv, 0.12},
      {LayerKind::kFC, 0.35},     {LayerKind::kMaxPool, 0.20},
      {LayerKind::kAvgPool, 0.20},{LayerKind::kGlobalAvgPool, 0.20},
      {LayerKind::kReLU, 0.15},   {LayerKind::kBatchNorm, 0.15},
      {LayerKind::kAdd, 0.15},    {LayerKind::kSoftmax, 0.15},
  });
}

ComputeProfile make(const std::string& name, double gf, double bw_gbs,
                    double overhead, const EfficiencyTable& eff) {
  ComputeProfile p;
  p.name = name;
  p.peak_flops = gflops(gf);
  p.mem_bw = bw_gbs * 1e9;
  p.layer_overhead = overhead;
  p.efficiency = eff;
  return p;
}

}  // namespace

ComputeProfile iot_camera() {
  return make("iot_camera", 2.0, 1.5, 80e-6, cpu_efficiency());
}
ComputeProfile raspberry_pi4() {
  return make("raspberry_pi4", 8.0, 4.0, 50e-6, cpu_efficiency());
}
ComputeProfile smartphone() {
  return make("smartphone", 30.0, 12.0, 30e-6, cpu_efficiency());
}
ComputeProfile jetson_nano() {
  return make("jetson_nano", 140.0, 25.0, 40e-6, gpu_efficiency());
}
ComputeProfile edge_cpu() {
  return make("edge_cpu", 250.0, 80.0, 20e-6, cpu_efficiency());
}
ComputeProfile edge_gpu_t4() {
  return make("edge_gpu_t4", 3500.0, 300.0, 35e-6, gpu_efficiency());
}
ComputeProfile edge_gpu_v100() {
  return make("edge_gpu_v100", 10000.0, 900.0, 35e-6, gpu_efficiency());
}

ComputeProfile by_name(const std::string& name) {
  if (name == "iot_camera") return iot_camera();
  if (name == "raspberry_pi4") return raspberry_pi4();
  if (name == "smartphone") return smartphone();
  if (name == "jetson_nano") return jetson_nano();
  if (name == "edge_cpu") return edge_cpu();
  if (name == "edge_gpu_t4") return edge_gpu_t4();
  if (name == "edge_gpu_v100") return edge_gpu_v100();
  SCALPEL_REQUIRE(false, "unknown compute profile: " + name);
}

}  // namespace profiles
}  // namespace scalpel
