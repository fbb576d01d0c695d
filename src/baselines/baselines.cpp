#include "baselines/baselines.hpp"

#include <algorithm>
#include <limits>

#include "core/objective.hpp"
#include "sched/offloading.hpp"
#include "surgery/exit_setting.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scalpel::baselines {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The shared fixed-plan pipeline: an equal uplink split among the
/// offloading plans, each offloading device on its entry of `servers`
/// (chosen greedily when `servers` is empty), and clamped Kleinrock shares.
/// `stats` and `servers` are indexed by device. A plan that partitions but
/// never uploads falls back to device-only.
Decision allocate(const ProblemInstance& instance, const std::string& scheme,
                  const std::vector<SurgeryPlan>& plans,
                  const std::vector<OffloadStats>& stats,
                  const std::vector<int>& servers = {}) {
  const std::size_t n = plans.size();
  std::vector<bool> offloads(n);
  std::vector<std::size_t> rows;
  for (std::size_t i = 0; i < n; ++i) {
    offloads[i] = !plans[i].device_only;
    if (offloads[i] && stats[i].offload_prob > 0.0) rows.push_back(i);
  }
  const auto bandwidth = equal_uplink_split(instance.topology(), offloads);
  const auto prob = offloading_problem(instance, rows, stats, bandwidth);
  std::vector<int> server_of;
  std::vector<double> shares;
  if (!rows.empty()) {
    if (servers.empty()) {
      server_of = greedy_offloading(prob).server_of;
    } else {
      for (const std::size_t i : rows) server_of.push_back(servers[i]);
    }
    shares = clamped_shares(prob, server_of);
  }

  Decision d;
  d.scheme = scheme;
  d.per_device.resize(n);
  for (std::size_t i = 0; i < n; ++i) d.per_device[i].plan = plans[i];
  for (std::size_t k = 0; k < rows.size(); ++k) {
    auto& dd = d.per_device[rows[k]];
    dd.server = server_of[k];
    dd.compute_share = shares[k];
    dd.bandwidth = bandwidth[rows[k]];
  }
  for (auto& dd : d.per_device) {
    if (dd.server < 0) dd.plan.device_only = true;
  }
  evaluate_decision(instance, d);
  return d;
}

std::vector<OffloadStats> stats_of(const ProblemInstance& instance,
                                   const std::vector<SurgeryPlan>& plans) {
  std::vector<OffloadStats> stats;
  stats.reserve(plans.size());
  for (std::size_t i = 0; i < plans.size(); ++i) {
    stats.push_back(
        offload_stats(instance, static_cast<DeviceId>(i), plans[i]));
  }
  return stats;
}

/// Fixed plans on greedily chosen servers (device-only plans need none).
Decision allocate_greedy(const ProblemInstance& instance,
                         const std::string& scheme,
                         const std::vector<SurgeryPlan>& plans) {
  return allocate(instance, scheme, plans, stats_of(instance, plans));
}

SurgeryPlan offload_all_plan() {
  SurgeryPlan p;
  p.partition_after = 0;  // cut right after the input node
  return p;
}

}  // namespace

Decision device_only(const ProblemInstance& instance) {
  std::vector<SurgeryPlan> plans(instance.topology().devices().size());
  for (auto& p : plans) p.device_only = true;
  return allocate_greedy(instance, "device_only", plans);
}

Decision edge_only(const ProblemInstance& instance) {
  const std::size_t n = instance.topology().devices().size();
  std::vector<SurgeryPlan> plans(n, offload_all_plan());
  return allocate_greedy(instance, "edge_only", plans);
}

Decision neurosurgeon(const ProblemInstance& instance) {
  const auto& topo = instance.topology();
  const std::size_t n = topo.devices().size();
  const std::size_t m = topo.servers().size();

  // Partition against the fastest server at the expected fair share, over
  // the uplink an all-offloading cell would split evenly.
  std::size_t fastest = 0;
  for (std::size_t j = 1; j < m; ++j) {
    if (topo.server(static_cast<ServerId>(j)).compute.peak_flops >
        topo.server(static_cast<ServerId>(fastest)).compute.peak_flops) {
      fastest = j;
    }
  }
  const double fair_share =
      std::min(1.0, static_cast<double>(m) / static_cast<double>(n));
  const auto bandwidth =
      equal_uplink_split(topo, std::vector<bool>(n, true));

  std::vector<SurgeryPlan> plans(n);
  for (std::size_t i = 0; i < n; ++i) {
    plans[i] = partition_plan(instance, static_cast<DeviceId>(i),
                              static_cast<ServerId>(fastest), fair_share,
                              bandwidth[i]);
  }
  return allocate_greedy(instance, "neurosurgeon", plans);
}

Decision local_multi_exit(const ProblemInstance& instance) {
  const auto& topo = instance.topology();
  const std::size_t n = topo.devices().size();
  std::vector<SurgeryPlan> plans(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<DeviceId>(i);
    const auto& dev = topo.device(id);
    const auto& bundle = instance.bundle_for(id);
    ExitSettingOptions es;
    es.min_accuracy = dev.min_accuracy;
    const auto r = dp_exit_setting(bundle.graph, bundle.candidates,
                                   bundle.accuracy, dev.compute, es);
    plans[i].device_only = true;
    if (r.feasible) plans[i].policy = r.policy;
  }
  return allocate_greedy(instance, "local_multi_exit", plans);
}

Decision random_scheme(const ProblemInstance& instance, std::uint64_t seed) {
  Rng rng(seed);
  const auto& topo = instance.topology();
  const std::size_t n = topo.devices().size();
  const std::size_t m = topo.servers().size();
  std::vector<SurgeryPlan> plans(n);
  std::vector<int> forced_server(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& bundle = instance.bundle_for(static_cast<DeviceId>(i));
    const auto cuts = bundle.graph.clean_cuts();
    const auto pick = rng.uniform_int(0, static_cast<std::int64_t>(cuts.size()));
    if (pick == static_cast<std::int64_t>(cuts.size())) {
      plans[i].device_only = true;
    } else {
      plans[i].partition_after = cuts[static_cast<std::size_t>(pick)].after;
      forced_server[i] = static_cast<int>(
          rng.uniform_int(0, static_cast<std::int64_t>(m) - 1));
    }
  }
  return allocate(instance, "random", plans, stats_of(instance, plans),
                  forced_server);
}

Decision small_exhaustive(const ProblemInstance& instance) {
  const auto& topo = instance.topology();
  const std::size_t n = topo.devices().size();
  const std::size_t m = topo.servers().size();
  SCALPEL_REQUIRE(n <= 4, "small_exhaustive limited to <= 4 devices");

  // Option space per device: device-only, or (cut, server) over a small
  // subsampled cut set. A plan's statistics do not depend on the rest of
  // the combination, so each is computed once.
  struct Option {
    SurgeryPlan plan;
    OffloadStats stats;
    int server = -1;
  };
  std::vector<std::vector<Option>> options(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto id = static_cast<DeviceId>(i);
    Option local;
    local.plan.device_only = true;
    options[i].push_back(local);
    auto cuts = instance.bundle_for(id).graph.clean_cuts();
    // Subsample to keep the joint enumeration tractable.
    const std::size_t stride = std::max<std::size_t>(1, cuts.size() / 6);
    for (std::size_t c = 0; c < cuts.size(); c += stride) {
      Option o;
      o.plan.partition_after = cuts[c].after;
      o.stats = offload_stats(instance, id, o.plan);
      for (std::size_t j = 0; j < m; ++j) {
        o.server = static_cast<int>(j);
        options[i].push_back(o);
      }
    }
  }

  std::vector<std::size_t> idx(n, 0);
  Decision best;
  best.scheme = "small_exhaustive";
  double best_obj = kInf;
  std::vector<SurgeryPlan> plans(n);
  std::vector<OffloadStats> stats(n);
  std::vector<int> servers(n);
  for (;;) {
    for (std::size_t i = 0; i < n; ++i) {
      plans[i] = options[i][idx[i]].plan;
      stats[i] = options[i][idx[i]].stats;
      servers[i] = options[i][idx[i]].server;
    }
    Decision d = allocate(instance, "small_exhaustive", plans, stats, servers);
    if (d.mean_latency < best_obj) {
      best_obj = d.mean_latency;
      best = std::move(d);
    }
    std::size_t k = 0;
    while (k < n && ++idx[k] == options[k].size()) {
      idx[k] = 0;
      ++k;
    }
    if (k == n) break;
  }
  return best;
}

std::vector<std::string> names() {
  return {"device_only", "edge_only", "neurosurgeon", "local_multi_exit",
          "random"};
}

Decision by_name(const ProblemInstance& instance, const std::string& name,
                 std::uint64_t seed) {
  if (name == "device_only") return device_only(instance);
  if (name == "edge_only") return edge_only(instance);
  if (name == "neurosurgeon") return neurosurgeon(instance);
  if (name == "local_multi_exit") return local_multi_exit(instance);
  if (name == "random") return random_scheme(instance, seed);
  SCALPEL_REQUIRE(false, "unknown baseline: " + name);
}

}  // namespace scalpel::baselines
