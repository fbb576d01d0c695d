#pragma once

#include <cstdint>

#include "edge/cluster.hpp"

namespace scalpel {
class Rng;

/// Deterministic cluster generators used across examples, tests and benches.
namespace clusters {

/// 4 devices (one per device class), 2 servers (CPU + T4), one 80 Mbps cell.
/// The quickstart topology.
ClusterTopology small_lab();

struct CampusOptions {
  std::size_t num_devices = 24;
  std::size_t num_servers = 4;
  /// Devices per cell (cells created as needed).
  std::size_t devices_per_cell = 8;
  double cell_rtt = 2e-3;
  /// Coefficient of variation applied to server speeds (heterogeneity knob
  /// for the sensitivity bench); 0 = homogeneous T4-class servers.
  double server_speed_cov = 0.5;
  double mean_arrival_rate = 2.0;  // tasks/s per device
  double deadline = 0.25;          // seconds; 0 = best effort
  double min_accuracy = 0.60;
  std::uint64_t seed = 42;
};

/// Randomized heterogeneous deployment: device classes and models drawn from
/// the catalog, servers log-normal around a T4, multiple cells.
ClusterTopology campus(const CampusOptions& opts);

}  // namespace clusters
}  // namespace scalpel
