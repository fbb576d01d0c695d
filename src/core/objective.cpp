#include "core/objective.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/validate.hpp"
#include "profile/latency_model.hpp"
#include "sched/queueing.hpp"
#include "surgery/partition.hpp"
#include "util/assert.hpp"

namespace scalpel {

namespace {

/// Everything build_plan_model hands PlanModel besides the plan itself.
struct PlanInputs {
  const ModelBundle* bundle = nullptr;
  const ComputeProfile* device = nullptr;
  const ComputeProfile* server = nullptr;
  LinkSpec link;
  const DifficultyModel* difficulty = nullptr;
};

PlanInputs plan_inputs(const ProblemInstance& instance, DeviceId id,
                       const DeviceDecision& decision) {
  const auto& dev = instance.topology().device(id);
  PlanInputs in;
  in.bundle = &instance.bundle_for(id);
  in.device = &dev.compute;
  in.difficulty = &dev.difficulty;
  if (decision.plan.device_only) {
    in.server = &dev.compute;
    in.link.bandwidth = 1.0;  // unused; PlanModel requires a positive rate
    in.link.rtt = 0.0;
    return in;
  }
  SCALPEL_REQUIRE(decision.server >= 0, "offloading decision needs a server");
  SCALPEL_REQUIRE(decision.bandwidth > 0.0,
                  "offloading decision needs bandwidth");
  SCALPEL_REQUIRE(decision.compute_share > 0.0 && decision.compute_share <= 1.0,
                  "compute share must be in (0, 1]");
  in.server = &instance.topology().server(decision.server).compute;
  in.link.bandwidth = decision.bandwidth;
  in.link.rtt = instance.topology().path_rtt(id, decision.server);
  return in;
}

void append_raw(std::string& key, const void* p, std::size_t n) {
  key.append(static_cast<const char*>(p), n);
}

void append_f64(std::string& key, double v) { append_raw(key, &v, sizeof v); }

void append_u64(std::string& key, std::uint64_t v) {
  append_raw(key, &v, sizeof v);
}

/// The numbers the latency model reads; the name is a label only.
void append_profile(std::string& key, const ComputeProfile& p) {
  append_f64(key, p.peak_flops);
  append_f64(key, p.mem_bw);
  append_f64(key, p.layer_overhead);
  append_raw(key, p.efficiency.values.data(), sizeof p.efficiency.values);
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

PlanModel build_plan_model(const ProblemInstance& instance, DeviceId id,
                           const DeviceDecision& decision) {
  const PlanInputs in = plan_inputs(instance, id, decision);
  return PlanModel(in.bundle->graph, in.bundle->candidates, decision.plan,
                   in.bundle->accuracy, *in.device, *in.server, in.link,
                   *in.difficulty);
}

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

std::shared_ptr<const PlanModel> PlanModelCache::get_or_compile(
    const ProblemInstance& instance, DeviceId id,
    const DeviceDecision& decision) {
  const PlanInputs in = plan_inputs(instance, id, decision);
  return get_or_compile(*in.bundle, decision.plan, *in.device, *in.server,
                        in.link, *in.difficulty);
}

void PlanModelCache::evict_unused() {
  std::erase_if(cache_,
                [](const auto& entry) { return entry.second.use_count() == 1; });
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Per-stage expected sojourns of the tandem network (see objective.hpp).
/// Returns false (and leaves outputs +inf) when any stage is unstable.
struct StageTimes {
  double device = 0.0;  // unconditional (all tasks)
  double upload = 0.0;  // conditional on offload, incl. rtt
  double server = 0.0;  // conditional on offload
};

bool stage_times(const ProblemInstance& instance, DeviceId id,
                 const DeviceDecision& decision, const PlanBreakdown& b,
                 StageTimes* out) {
  const auto& dev = instance.topology().device(id);
  // Stage 1: device M/G/1.
  out->device = queueing::mg1_sojourn(dev.arrival_rate, b.expected_device_time,
                                      b.device_time_m2);
  if (!std::isfinite(out->device)) return false;
  if (decision.plan.device_only || b.offload_prob <= 0.0) return true;

  const double lambda_off = dev.arrival_rate * b.offload_prob;
  const double rtt = instance.topology().path_rtt(id, decision.server);
  // Stage 2: upload M/D/1 on the granted bandwidth.
  const double s_up =
      static_cast<double>(b.upload_bytes) / decision.bandwidth;
  out->upload = queueing::md1_sojourn(lambda_off, s_up) + rtt;
  if (!std::isfinite(out->upload)) return false;
  // Stage 3: server M/G/1 on the compute-share slice.
  const double m1 = b.server_time_cond_m1 / decision.compute_share;
  const double m2 = b.server_time_cond_m2 /
                    (decision.compute_share * decision.compute_share);
  out->server = queueing::mg1_sojourn(lambda_off, m1, m2);
  return std::isfinite(out->server);
}

}  // namespace

OffloadStats offload_stats(const ProblemInstance& instance, DeviceId id,
                           const SurgeryPlan& plan) {
  OffloadStats st;
  if (plan.device_only) return st;
  const std::size_t m = instance.topology().servers().size();
  st.server_time.resize(m, 0.0);
  DeviceDecision dd;
  dd.plan = plan;
  dd.compute_share = 1.0;
  dd.bandwidth = 1.0;  // placeholder: none of the statistics reads the link
  for (std::size_t j = 0; j < m; ++j) {
    dd.server = static_cast<ServerId>(j);
    const PlanBreakdown b = build_plan_model(instance, id, dd).breakdown();
    if (j == 0) {
      st.offload_prob = b.offload_prob;
      st.upload_bytes = b.upload_bytes;
    }
    st.server_time[j] =
        b.offload_prob > 0.0 ? b.expected_server_time / b.offload_prob : 0.0;
  }
  return st;
}

double negotiated_bandwidth(const ProblemInstance& instance, DeviceId id,
                            double granted, std::int64_t upload_bytes) {
  const auto& dev = instance.topology().device(id);
  const double stability_bw =
      1.25 * dev.arrival_rate * static_cast<double>(upload_bytes);
  return std::min(std::max(granted, stability_bw),
                  instance.topology().cell(dev.cell).bandwidth);
}

std::vector<double> equal_uplink_split(const ClusterTopology& topo,
                                       const std::vector<bool>& offloads) {
  std::vector<std::size_t> count(topo.cells().size(), 0);
  for (const auto& dev : topo.devices()) {
    if (offloads[static_cast<std::size_t>(dev.id)]) {
      ++count[static_cast<std::size_t>(dev.cell)];
    }
  }
  std::vector<double> bw(offloads.size(), 0.0);
  for (const auto& dev : topo.devices()) {
    const auto i = static_cast<std::size_t>(dev.id);
    if (offloads[i]) {
      bw[i] = topo.cell(dev.cell).bandwidth /
              static_cast<double>(count[static_cast<std::size_t>(dev.cell)]);
    }
  }
  return bw;
}

OffloadingProblem offloading_problem(const ProblemInstance& instance,
                                     const std::vector<std::size_t>& rows,
                                     const std::vector<OffloadStats>& stats,
                                     const std::vector<double>& bandwidth) {
  const auto& topo = instance.topology();
  const std::size_t m = topo.servers().size();
  OffloadingProblem prob;
  for (const std::size_t i : rows) {
    const auto id = static_cast<DeviceId>(i);
    const OffloadStats& st = stats[i];
    prob.rate.push_back(topo.device(id).arrival_rate * st.offload_prob);
    std::vector<double> base(m, 0.0);
    std::vector<double> work(m, 0.0);
    for (std::size_t j = 0; j < m; ++j) {
      base[j] = transfer_latency(st.upload_bytes, bandwidth[i],
                                 topo.path_rtt(id, static_cast<ServerId>(j)));
      work[j] = std::max(st.server_time[j], 1e-9);
    }
    prob.base_latency.push_back(std::move(base));
    prob.work.push_back(std::move(work));
  }
  return prob;
}

std::vector<double> clamped_shares(const OffloadingProblem& prob,
                                   const std::vector<int>& server_of) {
  std::vector<double> shares = kleinrock_shares(prob, server_of);
  for (double& s : shares) s = std::clamp(s, 1e-9, 1.0);
  return shares;
}

SurgeryPlan partition_plan(const ProblemInstance& instance, DeviceId id,
                           ServerId server, double share, double bandwidth) {
  const auto& topo = instance.topology();
  LinkSpec link;
  link.bandwidth = bandwidth;
  link.rtt = topo.path_rtt(id, server);
  const auto choice = optimal_partition(
      instance.bundle_for(id).graph, topo.device(id).compute,
      topo.server(server).compute.scaled(std::min(1.0, share)), link);
  SurgeryPlan plan;
  plan.device_only = choice.device_only;
  plan.partition_after = choice.device_only ? 0 : choice.cut_after;
  return plan;
}

namespace {

DevicePrediction predict_device(const ProblemInstance& instance, DeviceId id,
                                const DeviceDecision& decision,
                                const PlanModel& pm) {
  const auto& dev = instance.topology().device(id);
  const auto& b = pm.breakdown();

  DevicePrediction pred;
  pred.expected_accuracy = b.expected_accuracy;
  pred.offload_prob = b.offload_prob;
  pred.meets_accuracy = b.expected_accuracy >= dev.min_accuracy - 1e-9;

  StageTimes st;
  if (!stage_times(instance, id, decision, b, &st)) {
    pred.stable = false;
    pred.expected_latency = kInf;
    return pred;
  }
  pred.expected_latency =
      st.device + b.offload_prob * (st.upload + st.server);
  return pred;
}

}  // namespace

DevicePrediction evaluate_device(const ProblemInstance& instance, DeviceId id,
                                 const DeviceDecision& decision) {
  return predict_device(instance, id, decision,
                        build_plan_model(instance, id, decision));
}

void evaluate_decision(const ProblemInstance& instance, Decision& decision) {
  const auto& topo = instance.topology();
  SCALPEL_REQUIRE(decision.per_device.size() == topo.devices().size(),
                  "decision must cover every device");

  // Resource-grant feasibility.
  const ResourceUse use = resource_use(topo, decision);
  for (std::size_t c = 0; c < use.cell_grant.size(); ++c) {
    SCALPEL_REQUIRE(use.cell_grant[c] <=
                        topo.cell(static_cast<CellId>(c)).bandwidth *
                            (1.0 + 1e-6),
                    "cell bandwidth oversubscribed");
  }
  for (double s : use.server_share) {
    SCALPEL_REQUIRE(s <= 1.0 + 1e-6, "server compute oversubscribed");
  }

  decision.predicted.resize(decision.per_device.size());
  PlanModelCache cache;
  double weighted = 0.0;
  double total_rate = 0.0;
  bool any_unstable = false;
  for (std::size_t i = 0; i < decision.per_device.size(); ++i) {
    const auto id = static_cast<DeviceId>(i);
    const auto& dd = decision.per_device[i];
    decision.predicted[i] = predict_device(
        instance, id, dd, *cache.get_or_compile(instance, id, dd));
    const double rate = topo.device(id).arrival_rate;
    weighted += rate * decision.predicted[i].expected_latency;
    total_rate += rate;
    any_unstable = any_unstable || !decision.predicted[i].stable;
  }
  decision.mean_latency = any_unstable ? kInf : weighted / total_rate;
}

double predicted_deadline_satisfaction(const ProblemInstance& instance,
                                       const Decision& decision) {
  const auto& topo = instance.topology();
  SCALPEL_REQUIRE(decision.per_device.size() == topo.devices().size(),
                  "decision must cover every device");
  PlanModelCache cache;
  double weighted = 0.0;
  double total_rate = 0.0;
  constexpr int kGrid = 200;
  for (std::size_t i = 0; i < decision.per_device.size(); ++i) {
    const auto id = static_cast<DeviceId>(i);
    const auto& dev = topo.device(id);
    total_rate += dev.arrival_rate;
    if (dev.deadline <= 0.0) {
      weighted += dev.arrival_rate;  // best-effort devices always "meet"
      continue;
    }
    const auto& dd = decision.per_device[i];
    const auto model = cache.get_or_compile(instance, id, dd);
    const PlanModel& pm = *model;
    const auto& b = pm.breakdown();
    StageTimes st;
    if (!stage_times(instance, id, dd, b, &st)) {
      continue;  // unstable: never meets
    }
    // Mean queueing waits (beyond own service) at the first two stages; the
    // server stage's variability is modelled with an exponential tail on its
    // conditional sojourn.
    const double dev_wait = st.device - b.expected_device_time;
    const double s_up = dd.plan.device_only || b.offload_prob <= 0.0
                            ? 0.0
                            : static_cast<double>(b.upload_bytes) /
                                  dd.bandwidth;
    const double rtt = dd.plan.device_only
                           ? 0.0
                           : instance.topology().path_rtt(id, dd.server);
    const double up_wait = dd.plan.device_only
                               ? 0.0
                               : st.upload - s_up - rtt;

    double meet = 0.0;
    for (int g = 0; g < kGrid; ++g) {
      const double x = (static_cast<double>(g) + 0.5) / kGrid;
      const auto ph = pm.phases_for(x);
      if (!ph.offloaded) {
        meet += (ph.device_time + dev_wait <= dev.deadline) ? 1.0 : 0.0;
        continue;
      }
      const double slack =
          dev.deadline - ph.device_time - dev_wait - s_up - up_wait - rtt;
      if (slack <= 0.0) continue;
      if (st.server <= 0.0) {
        meet += 1.0;
        continue;
      }
      meet += 1.0 - std::exp(-slack / st.server);
    }
    weighted += dev.arrival_rate * meet / kGrid;
  }
  return weighted / total_rate;
}

}  // namespace scalpel
