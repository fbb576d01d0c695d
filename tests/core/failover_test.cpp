// Unit tests for the solve path the controllers share (core/failover): the
// sub-problem reduction and its lift back to global server ids, the capacity
// fit, and the liveness-flip audit text.

#include "core/failover.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "edge/builders.hpp"

namespace scalpel {
namespace {

ClusterTopology four_server_campus() {
  clusters::CampusOptions o;
  o.num_devices = 8;
  o.num_servers = 4;
  o.devices_per_cell = 4;
  o.seed = 7;
  return clusters::campus(o);
}

TEST(Failover, ReduceKeepsOneCellAndScalesTheUsableServers) {
  const ProblemInstance inst(four_server_campus());
  const auto& topo = inst.topology();
  // Server 1 is dead and server 2 holds no slice: both scale to 0.
  const std::vector<double> scale = {0.5, 0.0, 0.0, 1.0};
  Cell uplink = topo.cell(1);
  uplink.bandwidth = 0.5 * topo.cell(1).bandwidth;

  const ProblemInstance sub = failover::reduce(inst, {uplink}, scale);
  const auto& st = sub.topology();
  ASSERT_EQ(st.cells().size(), 1u);
  EXPECT_EQ(st.cell(0).id, 0);
  EXPECT_EQ(st.cell(0).bandwidth, uplink.bandwidth);

  const std::vector<DeviceId> members = topo.devices_in_cell(1);
  ASSERT_EQ(st.devices().size(), members.size());
  for (std::size_t j = 0; j < members.size(); ++j) {
    EXPECT_EQ(st.devices()[j].id, static_cast<DeviceId>(j));
    EXPECT_EQ(st.devices()[j].cell, 0);
    EXPECT_EQ(st.devices()[j].name, topo.device(members[j]).name);
  }

  ASSERT_EQ(st.servers().size(), 2u);
  EXPECT_EQ(st.server(0).name, topo.server(0).name);
  EXPECT_EQ(st.server(0).compute.peak_flops,
            0.5 * topo.server(0).compute.peak_flops);
  EXPECT_EQ(st.server(1).name, topo.server(3).name);
  EXPECT_EQ(st.server(1).compute.peak_flops,
            topo.server(3).compute.peak_flops);
  EXPECT_EQ(st.server(1).compute.mem_bw, topo.server(3).compute.mem_bw);

  Decision d;
  d.per_device.resize(members.size());
  for (std::size_t j = 0; j < members.size(); ++j) {
    d.per_device[j].server = static_cast<ServerId>(j % 2);
  }
  d.per_device[0].plan.device_only = true;
  d.per_device[0].server = -1;
  failover::lift(d, scale);
  EXPECT_EQ(d.per_device[0].server, -1);
  EXPECT_EQ(d.per_device[1].server, 3);
  EXPECT_EQ(d.per_device[2].server, 0);
  EXPECT_EQ(d.per_device[3].server, 3);

  Decision out_of_range;
  out_of_range.per_device.resize(1);
  out_of_range.per_device[0].server = 2;
  EXPECT_ANY_THROW(failover::lift(out_of_range, scale));
}

TEST(Failover, ReduceSharesTheParentsModelBundles) {
  const ProblemInstance inst(four_server_campus());
  const auto& topo = inst.topology();
  const ProblemInstance sub =
      failover::reduce(inst, {topo.cell(1)}, {1.0, 0.0, 1.0, 1.0});
  const std::vector<DeviceId> members = topo.devices_in_cell(1);
  ASSERT_EQ(sub.topology().devices().size(), members.size());
  for (std::size_t j = 0; j < members.size(); ++j) {
    EXPECT_EQ(&sub.bundle_for(static_cast<DeviceId>(j)),
              &inst.bundle_for(members[j]))
        << "device " << members[j];
  }
}

TEST(Failover, FitToCapacitySqueezesAnOversubscribedPlan) {
  const ClusterTopology topo = four_server_campus();
  Decision d;
  d.per_device.resize(topo.devices().size());
  for (std::size_t i = 0; i < d.per_device.size(); ++i) {
    auto& dd = d.per_device[i];
    dd.server = static_cast<ServerId>(i % 2);
    dd.compute_share = 0.5;
    dd.bandwidth = topo.cell(topo.device(static_cast<DeviceId>(i)).cell)
                       .bandwidth;
  }
  d.per_device[0].plan.device_only = true;

  failover::fit_to_capacity(topo, d);
  std::vector<double> share(topo.servers().size(), 0.0);
  std::vector<double> grant(topo.cells().size(), 0.0);
  for (std::size_t i = 0; i < d.per_device.size(); ++i) {
    const auto& dd = d.per_device[i];
    if (dd.plan.device_only) continue;
    share[static_cast<std::size_t>(dd.server)] += dd.compute_share;
    grant[static_cast<std::size_t>(
        topo.device(static_cast<DeviceId>(i)).cell)] += dd.bandwidth;
  }
  EXPECT_NEAR(share[0], 1.0, 1e-12);
  EXPECT_NEAR(share[1], 1.0, 1e-12);
  for (const auto& c : topo.cells()) {
    EXPECT_NEAR(grant[static_cast<std::size_t>(c.id)], c.bandwidth,
                1e-9 * c.bandwidth);
  }
  // The device-only entry carries no grant and is left alone.
  EXPECT_EQ(d.per_device[0].compute_share, 0.5);
}

TEST(Failover, FitToCapacityLeavesAFeasiblePlanBitIdentical) {
  const ClusterTopology topo = four_server_campus();
  Decision d;
  d.per_device.resize(topo.devices().size());
  for (std::size_t i = 0; i < d.per_device.size(); ++i) {
    auto& dd = d.per_device[i];
    dd.server = static_cast<ServerId>(i % 4);
    dd.compute_share = 0.3 + 0.01 * static_cast<double>(i);
    dd.bandwidth = 0.1 * topo.cell(topo.device(static_cast<DeviceId>(i)).cell)
                             .bandwidth;
  }
  const Decision before = d;
  failover::fit_to_capacity(topo, d);
  ASSERT_EQ(d.per_device.size(), before.per_device.size());
  for (std::size_t i = 0; i < d.per_device.size(); ++i) {
    EXPECT_EQ(d.per_device[i], before.per_device[i]) << "device " << i;
  }
}

TEST(Failover, LivenessFlipsAppendToTheAuditDetail) {
  std::string detail;
  failover::append_liveness_flips(detail, {true, true, false, true},
                                  {true, false, true, true});
  EXPECT_EQ(detail, "server 1 down, server 2 up");
  std::string drift = "cell 0 bandwidth +30%";
  failover::append_liveness_flips(drift, {true}, {false});
  EXPECT_EQ(drift, "cell 0 bandwidth +30%, server 0 down");
}

}  // namespace
}  // namespace scalpel
