#pragma once

#include <cstdint>
#include <vector>

namespace scalpel {

/// Server-selection ("offloading") subproblem: each device class must pick
/// one edge server; a server's unit capacity (its full speed) is split among
/// its assignees by the Kleinrock rule, so one device's choice changes
/// everyone's queueing delay. The server count is the rows' width. This is
/// the distributed-offloading component: the best-response dynamics
/// converge to a Nash point whose social cost tests show is near the small-
/// instance optimum.
struct OffloadingProblem {
  /// base_latency[i][j]: non-queueing latency (device compute + upload +
  /// rtt) of device i when served by server j. +inf forbids the pair.
  std::vector<std::vector<double>> base_latency;
  /// rate[i]: offloaded-task arrival rate of device i (tasks/s).
  std::vector<double> rate;
  /// work[i][j]: expected full-speed server time (seconds) per offloaded
  /// task of device i on j, conditional on the task offloading; a device
  /// granted all of server j is served at rate 1 / work[i][j].
  std::vector<std::vector<double>> work;

  std::size_t num_devices() const { return rate.size(); }
  std::size_t num_servers() const {
    return base_latency.empty() ? 0 : base_latency.front().size();
  }
  void validate() const;
};

struct OffloadingSolution {
  std::vector<int> server_of;       // per device; never -1 on success
  std::vector<double> latency;      // per-device expected latency
  double social_cost = 0.0;         // rate-weighted mean latency
  std::size_t iterations = 0;       // best-response rounds (if applicable)
  bool converged = false;
  bool feasible = false;
};

/// Rate-weighted mean latency of an assignment; also fills per-device
/// latencies. Infeasible (overloaded server / forbidden pair) gives +inf.
double evaluate_assignment(const OffloadingProblem& p,
                           const std::vector<int>& server_of,
                           std::vector<double>* per_device_latency);

/// Devices sorted by demand, each placed on the currently cheapest server.
OffloadingSolution greedy_offloading(const OffloadingProblem& p);

/// Asynchronous best-response dynamics from the greedy start.
OffloadingSolution best_response_offloading(const OffloadingProblem& p);

/// Per-device share of its assigned server's capacity under the Kleinrock
/// split (fractions in (0, 1]; sum per server <= 1). Devices on an
/// overloaded server get 0 — callers must treat that as infeasible.
std::vector<double> kleinrock_shares(const OffloadingProblem& p,
                                     const std::vector<int>& server_of);

}  // namespace scalpel
