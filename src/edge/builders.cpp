#include "edge/builders.hpp"

#include <algorithm>

#include "surgery/accuracy_model.hpp"

#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace scalpel::clusters {
namespace {

/// Mean uplink capacity of a campus cell; each cell draws its own around it.
constexpr double kCampusCellBandwidthMbps = 120.0;

Device make_device(const std::string& name, const ComputeProfile& compute,
                   const EnergyProfile& energy, CellId cell,
                   const std::string& model, double rate, double deadline,
                   double min_accuracy) {
  Device d;
  d.name = name;
  d.compute = compute;
  d.energy = energy;
  d.cell = cell;
  d.model = model;
  d.arrival_rate = rate;
  d.deadline = deadline;
  d.min_accuracy = min_accuracy;
  return d;
}

}  // namespace

ClusterTopology small_lab() {
  ClusterTopology t;
  const CellId cell = t.add_cell(Cell{-1, "lab_wifi", mbps(80.0), ms(2.0)});

  t.add_device(make_device("cam0", profiles::iot_camera(),
                           profiles::energy_iot(), cell, "mobilenet_v1", 2.0,
                           0.20, 0.60));
  t.add_device(make_device("pi0", profiles::raspberry_pi4(),
                           profiles::energy_iot(), cell, "resnet18", 1.5, 0.30,
                           0.62));
  t.add_device(make_device("phone0", profiles::smartphone(),
                           profiles::energy_phone(), cell, "vgg16", 1.0, 0.50,
                           0.65));
  t.add_device(make_device("jetson0", profiles::jetson_nano(),
                           profiles::energy_jetson(), cell, "tiny_yolo", 4.0,
                           0.15, 0.50));

  EdgeServer cpu;
  cpu.name = "edge-cpu-0";
  cpu.compute = profiles::edge_cpu();
  cpu.backhaul_rtt = ms(0.5);
  t.add_server(cpu);

  EdgeServer gpu;
  gpu.name = "edge-t4-0";
  gpu.compute = profiles::edge_gpu_t4();
  gpu.backhaul_rtt = ms(1.0);
  t.add_server(gpu);

  t.validate();
  return t;
}

ClusterTopology campus(const CampusOptions& opts) {
  SCALPEL_REQUIRE(opts.num_devices > 0 && opts.num_servers > 0,
                  "campus needs devices and servers");
  SCALPEL_REQUIRE(opts.devices_per_cell > 0, "devices_per_cell must be > 0");
  Rng rng(opts.seed);
  ClusterTopology t;

  const std::size_t num_cells =
      (opts.num_devices + opts.devices_per_cell - 1) / opts.devices_per_cell;
  for (std::size_t c = 0; c < num_cells; ++c) {
    Cell cell;
    cell.name = "cell" + std::to_string(c);
    // Mild bandwidth diversity across cells.
    cell.bandwidth =
        mbps(kCampusCellBandwidthMbps * rng.lognormal_mean_cov(1.0, 0.15));
    cell.rtt = opts.cell_rtt;
    t.add_cell(cell);
  }

  const std::vector<ComputeProfile> device_classes = {
      profiles::iot_camera(), profiles::raspberry_pi4(),
      profiles::smartphone(), profiles::jetson_nano()};
  const std::vector<EnergyProfile> energy_classes = {
      profiles::energy_iot(), profiles::energy_iot(),
      profiles::energy_phone(), profiles::energy_jetson()};
  const std::vector<double> class_weights = {0.35, 0.25, 0.25, 0.15};
  // Latency-sensitive inference workloads typical of the motivating apps.
  const std::vector<std::string> workloads = {"mobilenet_v1", "resnet18",
                                              "alexnet", "vgg16", "tiny_yolo"};
  const std::vector<double> workload_weights = {0.30, 0.25, 0.15, 0.15, 0.15};
  // Clamp the accuracy floor to what the workload's model can actually
  // deliver (tiny_yolo's mAP-style ceiling sits below typical classifier
  // floors); a floor above a_max would be inherently infeasible.
  std::vector<double> workload_floor;
  for (const auto& w : workloads) {
    workload_floor.push_back(std::min(
        opts.min_accuracy, AccuracyModel::for_model(w).a_max * 0.95));
  }

  t.reserve_devices(opts.num_devices);
  for (std::size_t i = 0; i < opts.num_devices; ++i) {
    const auto cls = rng.categorical(class_weights);
    const auto wl = rng.categorical(workload_weights);
    const auto cell = static_cast<CellId>(i / opts.devices_per_cell);
    const double rate =
        opts.mean_arrival_rate * rng.lognormal_mean_cov(1.0, 0.3);
    t.add_device(make_device(
        "dev" + std::to_string(i), device_classes[cls], energy_classes[cls],
        cell, workloads[wl], rate, opts.deadline, workload_floor[wl]));
  }

  for (std::size_t s = 0; s < opts.num_servers; ++s) {
    EdgeServer server;
    server.name = "edge" + std::to_string(s);
    server.compute = profiles::edge_gpu_t4();
    server.compute.name += "#" + std::to_string(s);
    server.compute.peak_flops *=
        rng.lognormal_mean_cov(1.0, opts.server_speed_cov);
    server.compute.mem_bw *= rng.lognormal_mean_cov(1.0, opts.server_speed_cov);
    server.backhaul_rtt = ms(rng.uniform(0.3, 1.5));
    t.add_server(server);
  }

  t.validate();
  return t;
}

}  // namespace scalpel::clusters
