#include "core/instance.hpp"

#include "nn/models.hpp"
#include "util/assert.hpp"

namespace scalpel {

namespace {

std::shared_ptr<const ModelBundle> build_bundle(const std::string& model) {
  auto bundle = std::make_shared<ModelBundle>();
  bundle->graph = models::by_name(model);
  ExitCandidateOptions opts;
  // Detection-style outputs keep a conservative class count for heads.
  opts.num_classes = (model == "tiny_yolo") ? 20 : 1000;
  if (model == "lenet5" || model == "tiny_cnn") opts.num_classes = 10;
  bundle->candidates = find_exit_candidates(bundle->graph, opts);
  bundle->accuracy = AccuracyModel::for_model(model);
  return bundle;
}

}  // namespace

ProblemInstance::ProblemInstance(const ClusterTopology& topology)
    : ProblemInstance(topology, nullptr) {}

ProblemInstance::ProblemInstance(const ClusterTopology& topology,
                                 const ProblemInstance& parent)
    : ProblemInstance(topology, &parent) {}

ProblemInstance::ProblemInstance(const ClusterTopology& topology,
                                 const ProblemInstance* parent)
    : topology_(topology) {
  topology_.validate();
  device_bundle_.reserve(topology_.devices().size());
  for (const auto& d : topology_.devices()) {
    auto it = bundles_.find(d.model);
    if (it == bundles_.end()) {
      std::shared_ptr<const ModelBundle> bundle;
      if (parent != nullptr) {
        const auto pit = parent->bundles_.find(d.model);
        if (pit != parent->bundles_.end()) bundle = pit->second;
      }
      it = bundles_.emplace(d.model, bundle ? bundle : build_bundle(d.model))
               .first;
    }
    device_bundle_.push_back(it->second.get());
  }
}

const ModelBundle& ProblemInstance::bundle_for(DeviceId id) const {
  SCALPEL_REQUIRE(
      id >= 0 && static_cast<std::size_t>(id) < device_bundle_.size(),
      "device id out of range");
  return *device_bundle_[static_cast<std::size_t>(id)];
}

}  // namespace scalpel
