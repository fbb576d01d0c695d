#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace scalpel {

/// Operator taxonomy. Covers every op used by the model zoo (AlexNet, VGG-16,
/// ResNet-18, MobileNetV1, TinyYOLO, LeNet-5) plus the synthesized exit heads.
enum class LayerKind {
  kInput,
  kConv,        // standard 2-D convolution (+bias)
  kDWConv,      // depthwise 2-D convolution (+bias)
  kFC,          // fully connected (+bias)
  kMaxPool,
  kAvgPool,
  kGlobalAvgPool,
  kReLU,
  kBatchNorm,   // inference-mode affine normalization
  kAdd,         // elementwise residual add (two inputs)
  kConcat,      // channel concat (>= two inputs)
  kFlatten,
  kSoftmax,
};

/// Number of LayerKind values; kSoftmax is the last.
inline constexpr std::size_t kLayerKindCount =
    static_cast<std::size_t>(LayerKind::kSoftmax) + 1;

const char* layer_kind_name(LayerKind kind);

/// Immutable description of one operator. Geometry (kernel/stride/pad/units)
/// lives here; connectivity lives in Graph.
struct LayerSpec {
  LayerKind kind = LayerKind::kInput;
  std::string name;

  // Conv / DWConv / pooling geometry.
  std::int64_t out_channels = 0;  // kConv only
  std::int64_t kernel = 0;
  std::int64_t stride = 1;
  std::int64_t pad = 0;

  // FC.
  std::int64_t units = 0;

  // kInput: the activation shape fed into the network.
  Shape input_shape;

  /// Output shape given input shapes (validates arity + geometry).
  Shape out_shape(const std::vector<Shape>& inputs) const;

  /// Forward FLOPs (multiply-add counted as 2 FLOPs, matching the convention
  /// used by the model-zoo reference numbers).
  std::int64_t flops(const std::vector<Shape>& inputs) const;

  /// Learnable parameter count (weights + bias; BN counts its 4 per-channel
  /// vectors as stored parameters, matching framework `num_params` dumps).
  std::int64_t param_count(const std::vector<Shape>& inputs) const;

  /// True if this op carries weights that the executor must materialize.
  bool has_weights() const;

  // --- Named constructors keep model-builder code legible. ---
  static LayerSpec input(Shape shape, std::string name = "input");
  static LayerSpec conv(std::int64_t out_channels, std::int64_t kernel,
                        std::int64_t stride, std::int64_t pad,
                        std::string name);
  static LayerSpec dwconv(std::int64_t kernel, std::int64_t stride,
                          std::int64_t pad, std::string name);
  static LayerSpec fc(std::int64_t units, std::string name);
  static LayerSpec maxpool(std::int64_t kernel, std::int64_t stride,
                           std::string name, std::int64_t pad = 0);
  static LayerSpec avgpool(std::int64_t kernel, std::int64_t stride,
                           std::string name, std::int64_t pad = 0);
  static LayerSpec global_avgpool(std::string name);
  static LayerSpec relu(std::string name);
  static LayerSpec batchnorm(std::string name);
  static LayerSpec add(std::string name);
  static LayerSpec concat(std::string name);
  static LayerSpec flatten(std::string name);
  static LayerSpec softmax(std::string name);
};

}  // namespace scalpel
