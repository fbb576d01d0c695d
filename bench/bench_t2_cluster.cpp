// T2 — Heterogeneous edge deployment profiles: device classes, edge servers
// and wireless cells used throughout the evaluation.

#include "bench_common.hpp"
#include "profile/compute_profile.hpp"

using namespace scalpel;

int main() {
  bench::banner("T2", "Heterogeneous device/server/link profiles");

  Table dev({"class", "peak GFLOPS", "mem GB/s", "conv eff.",
             "per-layer ovh (us)"});
  for (const char* name : {"iot_camera", "raspberry_pi4", "smartphone",
                           "jetson_nano", "edge_cpu", "edge_gpu_t4",
                           "edge_gpu_v100"}) {
    const auto p = profiles::by_name(name);
    dev.add_row({name, Table::num(p.peak_flops / 1e9, 0),
                 Table::num(p.mem_bw / 1e9, 1),
                 Table::num(p.efficiency[LayerKind::kConv], 2),
                 Table::num(p.layer_overhead * 1e6, 0)});
  }
  std::printf("%s\n", dev.to_string().c_str());

  std::printf("small_lab deployment:\n");
  const auto lab = clusters::small_lab();
  Table topo({"entity", "name", "detail"});
  for (const auto& c : lab.cells()) {
    topo.add_row({"cell", c.name,
                  Table::num(c.bandwidth * 8 / 1e6, 0) + " Mbps, rtt " +
                      Table::num(to_ms(c.rtt), 1) + " ms"});
  }
  for (const auto& d : lab.devices()) {
    topo.add_row({"device", d.name,
                  d.compute.name + " / " + d.model + " @ " +
                      Table::num(d.arrival_rate, 1) + "/s, D=" +
                      Table::num(to_ms(d.deadline), 0) + " ms, A>=" +
                      Table::num(d.min_accuracy, 2)});
  }
  for (const auto& s : lab.servers()) {
    topo.add_row({"server", s.name,
                  s.compute.name + ", backhaul " +
                      Table::num(to_ms(s.backhaul_rtt), 1) + " ms"});
  }
  std::printf("%s\n", topo.to_string().c_str());

  std::printf("campus generator (defaults): 24 devices, 4 servers, "
              "8 devices/cell, T4-class servers with CoV 0.5\n");
  return 0;
}
