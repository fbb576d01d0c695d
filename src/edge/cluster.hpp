#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "profile/compute_profile.hpp"
#include "profile/energy_model.hpp"
#include "surgery/difficulty.hpp"

namespace scalpel {

using DeviceId = std::int32_t;
using ServerId = std::int32_t;
using CellId = std::int32_t;

/// A wireless cell: devices inside it share one uplink of `bandwidth`
/// bytes/s; every transfer also pays the cell's access latency.
struct Cell {
  CellId id = -1;
  std::string name;
  double bandwidth = 0.0;  // bytes/s, shared across the cell's devices
  double rtt = 0.0;        // one-way access latency (seconds)
};

/// An end device running one DNN workload.
struct Device {
  DeviceId id = -1;
  std::string name;
  ComputeProfile compute;
  EnergyProfile energy;
  CellId cell = -1;
  std::string model;        // model-zoo name of the DNN this device runs
  double arrival_rate = 1.0;  // tasks/s (Poisson)
  double deadline = 0.0;      // per-task latency target; 0 = best effort
  double min_accuracy = 0.0;  // accuracy floor for this workload
  /// Input-difficulty distribution of this device's task stream.
  DifficultyModel difficulty;
};

/// A heterogeneous edge server. `backhaul_rtt` is added to any transfer from
/// a cell to this server (it may sit deeper in the aggregation network).
struct EdgeServer {
  ServerId id = -1;
  std::string name;
  ComputeProfile compute;
  double backhaul_rtt = 0.0;
};

/// The full edge deployment the optimizer allocates over.
class ClusterTopology {
 public:
  DeviceId add_device(Device d);
  /// Capacity for `n` devices, so a builder's add_device calls never grow
  /// the device vector.
  void reserve_devices(std::size_t n) { devices_.reserve(n); }
  ServerId add_server(EdgeServer s);
  CellId add_cell(Cell c);

  const std::vector<Device>& devices() const { return devices_; }
  const std::vector<EdgeServer>& servers() const { return servers_; }
  const std::vector<Cell>& cells() const { return cells_; }

  const Device& device(DeviceId id) const;
  const EdgeServer& server(ServerId id) const;
  const Cell& cell(CellId id) const;

  /// Devices attached to a cell.
  std::vector<DeviceId> devices_in_cell(CellId id) const;

  /// Adjusts a cell's uplink capacity (online adaptation feeds observed
  /// bandwidths back into the optimization problem).
  void set_cell_bandwidth(CellId id, double bandwidth);

  /// Adjusts a device's offered rate (admission control iterates on the
  /// throttled system; load sweeps scale whole topologies).
  void set_device_arrival_rate(DeviceId id, double rate);

  /// One-way latency overhead for device -> server transfers.
  double path_rtt(DeviceId d, ServerId s) const;

  /// Validates referential integrity (cells exist, rates positive...).
  void validate() const;

 private:
  std::vector<Device> devices_;
  std::vector<EdgeServer> servers_;
  std::vector<Cell> cells_;
};

}  // namespace scalpel
