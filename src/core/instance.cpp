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
  for (const auto& d : topology_.devices()) {
    if (bundles_.count(d.model)) continue;
    std::shared_ptr<const ModelBundle> bundle;
    if (parent != nullptr) {
      const auto it = parent->bundles_.find(d.model);
      if (it != parent->bundles_.end()) bundle = it->second;
    }
    bundles_.emplace(d.model, bundle ? bundle : build_bundle(d.model));
  }
}

const ModelBundle& ProblemInstance::bundle_for(DeviceId id) const {
  return bundle_by_model(topology_.device(id).model);
}

const ModelBundle& ProblemInstance::bundle_by_model(
    const std::string& model_name) const {
  const auto it = bundles_.find(model_name);
  SCALPEL_REQUIRE(it != bundles_.end(), "no bundle for model " + model_name);
  return *it->second;
}

}  // namespace scalpel
