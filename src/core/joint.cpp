#include "core/joint.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <utility>

#include "core/objective.hpp"
#include "sched/offloading.hpp"
#include "sched/queueing.hpp"
#include "sched/shares.hpp"
#include "util/assert.hpp"
#include "util/thread_pool.hpp"

namespace scalpel {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Stop when the objective improves by less than this fraction.
constexpr double kConvergenceTol = 0.01;

/// Subsample clean cuts to keep the per-device surgery search bounded: keep
/// the earliest cut (offload-everything), the minimum-activation cut, and an
/// even spread by depth.
std::vector<Graph::CutPoint> candidate_cuts(const Graph& graph,
                                            std::size_t max_cuts) {
  auto cuts = graph.clean_cuts();
  if (cuts.size() <= max_cuts) return cuts;
  std::vector<bool> keep(cuts.size(), false);
  keep.front() = true;
  std::size_t min_act = 0;
  for (std::size_t i = 1; i < cuts.size(); ++i) {
    if (cuts[i].activation_bytes < cuts[min_act].activation_bytes) min_act = i;
  }
  keep[min_act] = true;
  for (std::size_t k = 0; k < max_cuts; ++k) {
    const std::size_t idx =
        k * (cuts.size() - 1) / (max_cuts - 1);
    keep[idx] = true;
  }
  std::vector<Graph::CutPoint> out;
  for (std::size_t i = 0; i < cuts.size(); ++i) {
    if (keep[i]) out.push_back(cuts[i]);
  }
  return out;
}

/// Price of shipping `bytes` per task over `bandwidth` at the device's
/// arrival rate: the M/D/1 sojourn on the upload plus the path RTT. The
/// inflation at the device's *full* arrival rate is a conservative bound
/// (exits only thin the offloaded stream) that steers the DP away from
/// cuts whose uploads cannot be sustained.
double upload_price(std::int64_t bytes, double bandwidth, double rtt,
                    double arrival_rate) {
  const double inflated = queueing::md1_sojourn(
      arrival_rate, static_cast<double>(bytes) / bandwidth);
  // Unsustainable uploads get a large finite penalty (an infinite label
  // would poison the DP arithmetic when multiplied by a zero reach).
  return (std::isfinite(inflated) ? inflated : 1e9) + rtt;
}

/// Bit equality (unlike ==, tells -0.0 from 0.0 and matches a NaN).
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

struct SurgeryOutcome {
  SurgeryPlan plan;
  double cost = kInf;
  bool feasible = false;      // a queueing-stable, accuracy-feasible plan
  std::size_t evaluations = 0;
  std::size_t labels = 0;
};

/// Per-device surgery search. For every candidate cut (plus device-only) the
/// generalized exit-setting DP proposes the best exit policy for that cut;
/// the proposals are then scored with the *true* objective — the three-stage
/// queueing evaluator at the device's current resource grant — so a cut
/// whose device-side work cannot sustain the arrival rate is rejected even
/// if its raw service latency looks attractive.
///
/// A cut's table prices the exit candidates at or before it with device
/// costs alone, exactly as the device-only table does. So the DP runs once
/// under the device-only table and forks at each cut's first candidate past
/// the cut (dp_exit_setting_forked) instead of re-running that shared
/// prefix for every cut.
SurgeryOutcome best_surgery(const ProblemInstance& instance, DeviceId id,
                            const ModelBundle& bundle, ServerId server,
                            double share, double bandwidth,
                            const std::vector<Graph::CutPoint>& cuts,
                            const ProfileCosts& dev_costs,
                            const JointOptions& opts) {
  const auto& dev = instance.topology().device(id);
  const ExitSettingOptions es = exit_setting_options(opts, dev);

  // The partitioned options in consider order, each with its cost table and
  // the number of exit candidates at or before its cut.
  struct CutOption {
    NodeId cut;
    double bandwidth;
    bool quantize;
  };
  std::vector<CutOption> options;
  std::vector<ExitCostTable> tables;
  std::vector<std::size_t> prefix;
  auto add_option = [&](const Graph::CutPoint& cut,
                        const ProfileCosts& slice_costs, double rtt,
                        bool quantize) {
    const std::int64_t bytes = wire_bytes(cut.activation_bytes, quantize);
    // Bandwidth is negotiable across rounds: if the plan is adopted, the
    // Kleinrock bandwidth step grants at least its stability minimum
    // whenever the cell can sustain it in aggregate.
    const double bw = negotiated_bandwidth(instance, id, bandwidth, bytes);
    options.push_back(CutOption{cut.after, bw, quantize});
    tables.push_back(build_cost_table(
        bundle.graph, bundle.candidates, cut.after,
        upload_price(bytes, bw, rtt, dev.arrival_rate), dev_costs,
        slice_costs));
    std::size_t k = 0;
    while (k < bundle.candidates.size() &&
           bundle.candidates[k].attach <= cut.after) {
      ++k;
    }
    prefix.push_back(k);
  };

  if (server >= 0 && share > 0.0 && bandwidth > 0.0) {
    const auto slice =
        instance.topology().server(server).compute.scaled(std::min(1.0, share));
    // One latency sweep for the scaled server, shared by every cut below —
    // previously recomputed inside each of the ~2x16 cost tables.
    const ProfileCosts slice_costs =
        profile_costs(bundle.graph, bundle.candidates, slice);
    const double rtt = instance.topology().path_rtt(id, server);
    for (const auto& cut : cuts) {
      add_option(cut, slice_costs, rtt, false);
      if (opts.enable_quantized_upload) {
        add_option(cut, slice_costs, rtt, true);
      }
    }
  }

  const ExitCostTable device_table = build_cost_table(
      bundle.graph, bundle.candidates, -1, 0.0, dev_costs, dev_costs);
  const std::vector<ExitSettingResult> proposals = dp_exit_setting_forked(
      bundle.candidates, bundle.accuracy, device_table, tables, prefix, es);

  SurgeryOutcome best;
  SurgeryOutcome best_unstable;  // least-bad fallback if nothing is stable

  auto consider = [&](NodeId cut, double bw, bool quantize,
                      const ExitSettingResult& r) {
    best.evaluations += r.evaluations;
    best.labels += r.labels;
    if (!r.feasible) return;

    SurgeryPlan plan;
    plan.policy = r.policy;
    plan.device_only = cut < 0;
    plan.partition_after = cut < 0 ? 0 : cut;
    plan.quantize_upload = quantize && cut >= 0;

    DeviceDecision dd;
    dd.plan = plan;
    if (!plan.device_only) {
      dd.server = server;
      dd.compute_share = std::min(1.0, share);
      dd.bandwidth = bw;
    }
    const DevicePrediction pred = evaluate_device(instance, id, dd);
    if (pred.stable && pred.expected_latency < best.cost) {
      best.cost = pred.expected_latency;
      best.feasible = true;
      best.plan = std::move(plan);
    } else if (!pred.stable && r.expected_latency < best_unstable.cost) {
      best_unstable.cost = r.expected_latency;
      best_unstable.plan = std::move(plan);
    }
  };

  consider(-1, 1.0, false, proposals.front());
  for (std::size_t j = 0; j < options.size(); ++j) {
    consider(options[j].cut, options[j].bandwidth, options[j].quantize,
             proposals[j + 1]);
  }
  if (!best.feasible && std::isfinite(best_unstable.cost)) {
    // Under genuine overload return the least-bad plan; the allocation step
    // and load shedding deal with the residual instability.
    best_unstable.evaluations = best.evaluations;
    best_unstable.labels = best.labels;
    best_unstable.feasible = true;
    return best_unstable;
  }
  return best;
}

}  // namespace

ExitSettingOptions exit_setting_options(const JointOptions& opts,
                                        const Device& device) {
  ExitSettingOptions es;
  es.min_accuracy = device.min_accuracy;
  es.theta_grid = opts.theta_grid;
  es.max_exits = opts.enable_exits ? opts.max_exits : 0;
  es.coverage_bins = opts.dp_coverage_bins;
  es.difficulty = device.difficulty;
  return es;
}

JointOptimizer::JointOptimizer(JointOptions opts) : opts_(std::move(opts)) {}

Decision JointOptimizer::optimize(const ProblemInstance& instance) const {
  return optimize(instance, nullptr);
}

Decision JointOptimizer::optimize(const ProblemInstance& instance,
                                  JointReport* report) const {
  const auto t0 = std::chrono::steady_clock::now();
  const auto& topo = instance.topology();
  const std::size_t n = topo.devices().size();
  const std::size_t m = topo.servers().size();

  // Each cell's members in device order.
  std::vector<std::vector<DeviceId>> cell_members(topo.cells().size());
  for (const auto& dev : topo.devices()) {
    cell_members[static_cast<std::size_t>(dev.cell)].push_back(dev.id);
  }

  // ---- Initial allocation: equal bandwidth split, rate-aware round robin
  // over servers, equal compute shares.
  std::vector<double> bandwidth =
      equal_uplink_split(topo, std::vector<bool>(n, true));
  std::vector<int> server_of(n, 0);
  {
    // Capacity-aware greedy: each device lands on the server with the most
    // spare capacity per committed arrival rate.
    std::vector<double> committed(m, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      std::size_t best_j = 0;
      double best_score = -kInf;
      for (std::size_t j = 0; j < m; ++j) {
        const double score =
            topo.server(static_cast<ServerId>(j)).compute.peak_flops /
            (committed[j] + topo.device(static_cast<DeviceId>(i)).arrival_rate);
        if (score > best_score) {
          best_score = score;
          best_j = j;
        }
      }
      server_of[i] = static_cast<int>(best_j);
      committed[best_j] += topo.device(static_cast<DeviceId>(i)).arrival_rate;
    }
  }
  auto equal_shares = [&](const std::vector<int>& assign,
                          const std::vector<bool>& offloads) {
    std::vector<std::size_t> count(m, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (offloads[i]) ++count[static_cast<std::size_t>(assign[i])];
    }
    std::vector<double> share(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      if (offloads[i]) {
        share[i] = 1.0 / static_cast<double>(
                             count[static_cast<std::size_t>(assign[i])]);
      }
    }
    return share;
  };
  std::vector<bool> offloads(n, true);
  std::vector<double> share = equal_shares(server_of, offloads);

  // ---- Frozen surgery for the allocation-only ablation.
  std::vector<SurgeryPlan> plans(n);
  if (!opts_.enable_surgery) {
    for (std::size_t i = 0; i < n; ++i) {
      plans[i] = partition_plan(instance, static_cast<DeviceId>(i),
                                server_of[i], share[i], bandwidth[i]);
    }
  }

  // Round-invariant per-device caches for the surgery search: the candidate
  // cut list and the device-profile latency sweep never change across the
  // alternation's rounds.
  std::vector<std::vector<Graph::CutPoint>> device_cuts(n);
  std::vector<ProfileCosts> device_costs(n);
  if (opts_.enable_surgery) {
    for (std::size_t i = 0; i < n; ++i) {
      const auto id = static_cast<DeviceId>(i);
      const ModelBundle& bundle = instance.bundle_for(id);
      device_cuts[i] = candidate_cuts(bundle.graph, /*max_cuts=*/16);
      device_costs[i] = profile_costs(bundle.graph, bundle.candidates,
                                      topo.device(id).compute);
    }
  }

  // Within one solve, best_surgery for device i is a pure function of its
  // grant (server, share, bandwidth): the instance, the cuts, the device
  // costs and the options are fixed. Each device keeps the grant its last
  // search ran under and that search's outcome, and a round whose grant is
  // bit-equal reuses the outcome instead of re-running the DP. This happens
  // mostly for devices that went local (the allocation step leaves their
  // stale grants alone) and for devices whose allocation did not move.
  struct SurgeryMemo {
    bool valid = false;
    int server = 0;
    double share = 0.0;
    double bandwidth = 0.0;
    SurgeryOutcome outcome;
  };
  std::vector<SurgeryMemo> surgery_memo(n);

  // The allocation step's plan statistics depend only on the surgery plan,
  // so they are memoized on the plan and reused when the alternation
  // revisits it.
  std::vector<std::vector<std::pair<SurgeryPlan, OffloadStats>>> alloc_cache(
      n);

  Decision best;
  best.scheme = "joint";
  double best_obj = kInf;
  std::size_t surgery_evals = 0;
  std::size_t dp_labels = 0;
  std::vector<double> history;

  auto snapshot = [&]() {
    Decision d;
    d.scheme = "joint";
    d.per_device.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto& dd = d.per_device[i];
      dd.plan = plans[i];
      if (!dd.plan.device_only) {
        dd.server = server_of[i];
        dd.compute_share = std::min(1.0, share[i]);
        dd.bandwidth = bandwidth[i];
      }
    }
    evaluate_decision(instance, d);
    return d;
  };

  for (std::size_t iter = 0; iter < opts_.max_iterations; ++iter) {
    // ---- Surgery step. Damped: a device adopts the new plan only if it
    // beats its current plan under the current grants — prevents the
    // surgery/allocation alternation from flip-flopping. Devices are
    // independent here (each reads the round's grants and writes only its
    // own plan and work counts), so they run across the shared pool
    // and the result does not depend on the pool size. A device's DP cost
    // varies with its model, so each pool thread claims the next unclaimed
    // device instead of a fixed chunk.
    if (opts_.enable_surgery) {
      std::vector<std::size_t> evals(n, 0);
      std::vector<std::size_t> labels(n, 0);
      std::atomic<std::size_t> next_device{0};
      auto improve = [&](std::size_t, std::size_t) {
        for (std::size_t i; (i = next_device.fetch_add(1)) < n;) {
          const auto id = static_cast<DeviceId>(i);
          const ModelBundle& bundle = instance.bundle_for(id);
          SurgeryMemo& memo = surgery_memo[i];
          if (!memo.valid || memo.server != server_of[i] ||
              !same_bits(memo.share, share[i]) ||
              !same_bits(memo.bandwidth, bandwidth[i])) {
            memo = {true, server_of[i], share[i], bandwidth[i],
                    best_surgery(instance, id, bundle, server_of[i],
                                 share[i], bandwidth[i], device_cuts[i],
                                 device_costs[i], opts_)};
            // A reused outcome counts its evaluations again (a logical
            // count), but not the labels its DP folded.
            labels[i] = memo.outcome.labels;
          }
          const SurgeryOutcome& outcome = memo.outcome;
          evals[i] = outcome.evaluations;
          if (!outcome.feasible) continue;
          if (iter == 0) {
            plans[i] = outcome.plan;
            continue;
          }
          DeviceDecision current;
          current.plan = plans[i];
          if (!current.plan.device_only) {
            current.server = server_of[i];
            current.compute_share = std::clamp(share[i], 1e-9, 1.0);
            // Same negotiable-bandwidth rule the proposals were scored
            // under, so incumbent and challenger are compared on equal
            // terms.
            current.bandwidth = negotiated_bandwidth(
                instance, id, std::max(bandwidth[i], 1.0),
                wire_bytes(bundle.graph.node(current.plan.partition_after)
                               .out_shape.bytes(),
                           current.plan.quantize_upload));
          }
          const auto current_pred = evaluate_device(instance, id, current);
          if (!current_pred.stable ||
              outcome.cost < current_pred.expected_latency) {
            plans[i] = outcome.plan;
          }
        }
      };
      ThreadPool& pool = ThreadPool::shared();
      pool.parallel_for(0, pool.size(), improve);
      for (const std::size_t e : evals) surgery_evals += e;
      for (const std::size_t l : labels) dp_labels += l;
    }
    for (std::size_t i = 0; i < n; ++i) offloads[i] = !plans[i].device_only;

    // ---- Allocation step.
    if (opts_.enable_allocation) {
      std::vector<OffloadStats> stats(n);
      for (std::size_t i = 0; i < n; ++i) {
        if (!offloads[i]) continue;
        auto& cache = alloc_cache[i];
        auto it = std::find_if(cache.begin(), cache.end(), [&](const auto& e) {
          return e.first == plans[i];
        });
        if (it == cache.end()) {
          it = cache.emplace(
              cache.end(), plans[i],
              offload_stats(instance, static_cast<DeviceId>(i), plans[i]));
        }
        stats[i] = it->second;
        if (stats[i].offload_prob <= 0.0) {
          // The plan never uploads despite a partition; treat as local.
          plans[i].device_only = true;
          offloads[i] = false;
        }
      }

      // Bandwidth per cell: Kleinrock split over the offloaders' upload
      // streams (stability-aware); if the cell is overloaded even at full
      // capacity, fall back to the square-root rule and let the objective's
      // instability penalty push the next surgery round to cut deeper.
      for (const auto& cell : topo.cells()) {
        std::vector<DeviceId> members;
        std::vector<double> lambda_up;
        std::vector<double> bytes_up;
        std::vector<double> demand;
        for (DeviceId d : cell_members[static_cast<std::size_t>(cell.id)]) {
          const auto i = static_cast<std::size_t>(d);
          if (!offloads[i]) continue;
          members.push_back(d);
          lambda_up.push_back(topo.device(d).arrival_rate *
                              stats[i].offload_prob);
          bytes_up.push_back(static_cast<double>(stats[i].upload_bytes));
          demand.push_back(topo.device(d).arrival_rate *
                           stats[i].offload_prob *
                           static_cast<double>(stats[i].upload_bytes));
        }
        if (members.empty()) continue;
        auto split = queueing::kleinrock(lambda_up, bytes_up, cell.bandwidth);
        // kleinrock refuses only when the summed demand reaches the cell's
        // (positive) bandwidth, so some demand is positive here.
        if (split.empty()) split = shares::sqrt_rule(demand, cell.bandwidth);
        std::vector<double> granted(split.size());
        double total = 0.0;
        for (std::size_t k = 0; k < split.size(); ++k) {
          granted[k] = std::max(split[k], cell.bandwidth * 1e-6);
          total += granted[k];
        }
        // Clamping zero-demand members up may oversubscribe; renormalize.
        const double scale = total > cell.bandwidth ? cell.bandwidth / total
                                                    : 1.0;
        for (std::size_t k = 0; k < members.size(); ++k) {
          bandwidth[static_cast<std::size_t>(members[k])] = granted[k] * scale;
        }
      }

      // Server assignment: best-response over the offloaders.
      std::vector<std::size_t> off_idx;
      for (std::size_t i = 0; i < n; ++i) {
        if (offloads[i]) off_idx.push_back(i);
      }
      if (!off_idx.empty()) {
        OffloadingProblem prob =
            offloading_problem(instance, off_idx, stats, bandwidth);
        auto solution = best_response_offloading(prob);
        if (!solution.feasible) {
          // Shed load: convert the heaviest offloaders to device-only until
          // the assignment stabilizes.
          while (!solution.feasible && off_idx.size() > 0) {
            std::size_t worst = 0;
            double worst_demand = -kInf;
            for (std::size_t k = 0; k < off_idx.size(); ++k) {
              const double d = prob.rate[k] * prob.work[k][0];
              if (d > worst_demand) {
                worst_demand = d;
                worst = k;
              }
            }
            const std::size_t dev_i = off_idx[worst];
            plans[dev_i].device_only = true;
            offloads[dev_i] = false;
            off_idx.erase(off_idx.begin() + static_cast<std::ptrdiff_t>(worst));
            prob.rate.erase(prob.rate.begin() +
                            static_cast<std::ptrdiff_t>(worst));
            prob.base_latency.erase(prob.base_latency.begin() +
                                    static_cast<std::ptrdiff_t>(worst));
            prob.work.erase(prob.work.begin() +
                            static_cast<std::ptrdiff_t>(worst));
            if (off_idx.empty()) break;
            solution = best_response_offloading(prob);
          }
        }
        if (!off_idx.empty() && solution.feasible) {
          const auto shares_out = clamped_shares(prob, solution.server_of);
          for (std::size_t k = 0; k < off_idx.size(); ++k) {
            server_of[off_idx[k]] = solution.server_of[k];
            share[off_idx[k]] = shares_out[k];
          }
        }
      }
    } else {
      share = equal_shares(server_of, offloads);
    }

    // ---- Evaluate the round.
    Decision d = snapshot();
    const double latency = d.mean_latency;
    history.push_back(latency);
    const bool first = best.per_device.empty();
    if (first || latency < best_obj) {
      const double improvement =
          std::isfinite(best_obj) && std::abs(best_obj) > 0.0
              ? (best_obj - latency) / std::abs(best_obj)
              : 1.0;
      best_obj = latency;
      best = std::move(d);
      if (!first && improvement < kConvergenceTol) break;
    } else if (std::isfinite(best_obj)) {
      break;  // no improvement on a finite objective: converged
    }
    // While the objective is still infinite, keep iterating — the damped
    // surgery/allocation rounds need a few passes to untangle overload.
  }

  // Portfolio guard: also solve the conservative variant (frozen
  // Neurosurgeon partitions, allocation optimized — cheap, no surgery DP)
  // and keep whichever decision is better. Under congestion the
  // alternation's negotiable-bandwidth scoring can settle in a worse
  // equilibrium than the frozen configuration; this guarantees the full
  // optimizer dominates its allocation-only ablation.
  if (opts_.enable_surgery) {
    JointOptions fallback = opts_;
    fallback.enable_surgery = false;
    Decision alt = JointOptimizer(fallback).optimize(instance);
    if (alt.mean_latency < best_obj) {
      alt.scheme = "joint";
      best = std::move(alt);
    }
  }

  if (report) {
    report->iterations = history.size();
    report->objective_history = history;
    report->surgery_evaluations = surgery_evals;
    report->dp_labels = dp_labels;
    report->solve_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  SCALPEL_REQUIRE(!best.per_device.empty(),
                  "joint optimizer produced no decision");
  return best;
}

}  // namespace scalpel
