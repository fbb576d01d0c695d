#pragma once

#include <array>
#include <string>

#include "nn/layer.hpp"

namespace scalpel {

/// Fraction of peak FLOP/s each layer kind reaches, in (0, 1]: one entry per
/// LayerKind, kDefault for the kinds a profile does not calibrate. A flat
/// table, so copying a profile allocates nothing.
struct EfficiencyTable {
  static constexpr double kDefault = 0.3;

  std::array<double, kLayerKindCount> values = [] {
    std::array<double, kLayerKindCount> v{};
    v.fill(kDefault);
    return v;
  }();

  double& operator[](LayerKind kind) {
    return values[static_cast<std::size_t>(kind)];
  }
  double operator[](LayerKind kind) const {
    return values[static_cast<std::size_t>(kind)];
  }
  bool operator==(const EfficiencyTable&) const = default;
};

/// Capability description of one compute unit (an end device or one edge
/// server). Calibrated against public device benchmarks; the latency model is
/// a roofline: per-layer time = max(compute time, memory time) with a
/// per-kind efficiency discount (convs vectorize well, depthwise and
/// elementwise ops do not).
struct ComputeProfile {
  std::string name;
  double peak_flops = 0.0;    // FLOP/s at full allocation
  double mem_bw = 0.0;        // bytes/s
  double layer_overhead = 0.0;  // fixed per-layer dispatch cost (seconds)
  EfficiencyTable efficiency;

  /// Effective FLOP/s for a layer kind (peak * efficiency).
  double effective_flops(LayerKind kind) const {
    return peak_flops * efficiency[kind];
  }

  /// A scaled copy (capability share x in (0, 1]); models a server slice
  /// granted to one task class. Memory bandwidth scales with the share too —
  /// a pessimistic but standard assumption for co-located tenants.
  ComputeProfile scaled(double share) const;
};

/// Preset catalog (names are stable API, used by benches and examples).
namespace profiles {

// End devices.
ComputeProfile iot_camera();      // ~2 GFLOPS — constrained IoT camera SoC
ComputeProfile raspberry_pi4();   // ~8 GFLOPS
ComputeProfile smartphone();      // ~30 GFLOPS — mid-range phone NPU-less
ComputeProfile jetson_nano();     // ~140 GFLOPS effective

// Edge servers.
ComputeProfile edge_cpu();        // ~250 GFLOPS — 16-core Xeon-class
ComputeProfile edge_gpu_t4();     // ~3.5 TFLOPS effective fp32
ComputeProfile edge_gpu_v100();   // ~10 TFLOPS effective fp32

/// Lookup by preset name; throws on unknown name.
ComputeProfile by_name(const std::string& name);

}  // namespace profiles
}  // namespace scalpel
