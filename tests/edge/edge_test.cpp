#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "edge/builders.hpp"
#include "edge/cluster.hpp"
#include "edge/dynamics.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace scalpel {
namespace {

TEST(Cluster, SmallLabIsValid) {
  const auto t = clusters::small_lab();
  t.validate();
  EXPECT_EQ(t.devices().size(), 4u);
  EXPECT_EQ(t.servers().size(), 2u);
  EXPECT_EQ(t.cells().size(), 1u);
}

TEST(Cluster, IdsAssignedSequentially) {
  const auto t = clusters::small_lab();
  for (std::size_t i = 0; i < t.devices().size(); ++i) {
    EXPECT_EQ(t.devices()[i].id, static_cast<DeviceId>(i));
  }
  for (std::size_t i = 0; i < t.servers().size(); ++i) {
    EXPECT_EQ(t.servers()[i].id, static_cast<ServerId>(i));
  }
}

TEST(Cluster, DevicesInCell) {
  const auto t = clusters::small_lab();
  const auto members = t.devices_in_cell(0);
  EXPECT_EQ(members.size(), 4u);
}

TEST(Cluster, PathRttComposesCellAndBackhaul) {
  const auto t = clusters::small_lab();
  const double rtt = t.path_rtt(0, 1);
  EXPECT_NEAR(rtt, t.cell(0).rtt + t.server(1).backhaul_rtt, 1e-12);
}

TEST(Cluster, AccessorsBoundsChecked) {
  const auto t = clusters::small_lab();
  EXPECT_THROW(t.device(99), ContractViolation);
  EXPECT_THROW(t.server(-1), ContractViolation);
  EXPECT_THROW(t.cell(5), ContractViolation);
}

TEST(Cluster, ValidateCatchesProblems) {
  ClusterTopology t;
  EXPECT_THROW(t.validate(), ContractViolation);  // empty
  t.add_cell(Cell{-1, "c", mbps(10.0), 0.001});
  Device d;
  d.name = "d";
  d.compute = profiles::smartphone();
  d.cell = 7;  // dangling cell reference
  d.model = "vgg16";
  t.add_device(d);
  EdgeServer s;
  s.name = "s";
  s.compute = profiles::edge_cpu();
  t.add_server(s);
  EXPECT_THROW(t.validate(), ContractViolation);
}

TEST(Cluster, SetCellBandwidth) {
  auto t = clusters::small_lab();
  t.set_cell_bandwidth(0, mbps(200.0));
  EXPECT_DOUBLE_EQ(t.cell(0).bandwidth, mbps(200.0));
  EXPECT_THROW(t.set_cell_bandwidth(0, 0.0), ContractViolation);
  EXPECT_THROW(t.set_cell_bandwidth(9, mbps(1.0)), ContractViolation);
}

TEST(Campus, DeterministicForSeed) {
  clusters::CampusOptions opts;
  opts.seed = 99;
  const auto a = clusters::campus(opts);
  const auto b = clusters::campus(opts);
  ASSERT_EQ(a.devices().size(), b.devices().size());
  for (std::size_t i = 0; i < a.devices().size(); ++i) {
    EXPECT_EQ(a.devices()[i].model, b.devices()[i].model);
    EXPECT_DOUBLE_EQ(a.devices()[i].arrival_rate,
                     b.devices()[i].arrival_rate);
    EXPECT_DOUBLE_EQ(a.devices()[i].compute.peak_flops,
                     b.devices()[i].compute.peak_flops);
  }
  for (std::size_t j = 0; j < a.servers().size(); ++j) {
    EXPECT_DOUBLE_EQ(a.servers()[j].compute.peak_flops,
                     b.servers()[j].compute.peak_flops);
  }
}

TEST(Campus, HonorsSizes) {
  clusters::CampusOptions opts;
  opts.num_devices = 17;
  opts.num_servers = 3;
  opts.devices_per_cell = 5;
  const auto t = clusters::campus(opts);
  EXPECT_EQ(t.devices().size(), 17u);
  EXPECT_EQ(t.servers().size(), 3u);
  EXPECT_EQ(t.cells().size(), 4u);  // ceil(17/5)
  t.validate();
}

TEST(Campus, HeterogeneityKnobSpreadsServerSpeeds) {
  clusters::CampusOptions homo;
  homo.server_speed_cov = 0.0;
  homo.num_servers = 8;
  const auto th = clusters::campus(homo);
  double min_s = 1e30;
  double max_s = 0.0;
  for (const auto& s : th.servers()) {
    min_s = std::min(min_s, s.compute.peak_flops);
    max_s = std::max(max_s, s.compute.peak_flops);
  }
  EXPECT_NEAR(max_s / min_s, 1.0, 1e-9);

  clusters::CampusOptions hetero = homo;
  hetero.server_speed_cov = 1.0;
  const auto tt = clusters::campus(hetero);
  min_s = 1e30;
  max_s = 0.0;
  for (const auto& s : tt.servers()) {
    min_s = std::min(min_s, s.compute.peak_flops);
    max_s = std::max(max_s, s.compute.peak_flops);
  }
  EXPECT_GT(max_s / min_s, 1.5);
}

TEST(Campus, ModelsComeFromZoo) {
  const auto t = clusters::campus({});
  const std::set<std::string> allowed = {"mobilenet_v1", "resnet18", "alexnet",
                                         "vgg16", "tiny_yolo"};
  for (const auto& d : t.devices()) {
    EXPECT_TRUE(allowed.count(d.model)) << d.model;
  }
}

TEST(BandwidthTrace, ConstantTrace) {
  const auto tr = BandwidthTrace::constant(mbps(42.0));
  EXPECT_DOUBLE_EQ(tr.at(0.0), mbps(42.0));
  EXPECT_DOUBLE_EQ(tr.at(1e6), mbps(42.0));
  EXPECT_DOUBLE_EQ(tr.mean(100.0), mbps(42.0));
}

TEST(BandwidthTrace, LookupPicksActiveSegment) {
  BandwidthTrace tr({{0.0, 10.0}, {5.0, 20.0}, {9.0, 5.0}});
  EXPECT_DOUBLE_EQ(tr.at(0.0), 10.0);
  EXPECT_DOUBLE_EQ(tr.at(4.999), 10.0);
  EXPECT_DOUBLE_EQ(tr.at(5.0), 20.0);
  EXPECT_DOUBLE_EQ(tr.at(8.0), 20.0);
  EXPECT_DOUBLE_EQ(tr.at(100.0), 5.0);
}

TEST(BandwidthTrace, MeanIntegratesSegments) {
  BandwidthTrace tr({{0.0, 10.0}, {5.0, 20.0}});
  EXPECT_NEAR(tr.mean(10.0), 15.0, 1e-12);
  EXPECT_NEAR(tr.mean(5.0), 10.0, 1e-12);
}

TEST(BandwidthTrace, ValidatesSegments) {
  EXPECT_THROW(BandwidthTrace({}), ContractViolation);
  EXPECT_THROW(BandwidthTrace({{0.0, 0.0}}), ContractViolation);
  EXPECT_THROW(BandwidthTrace({{0.0, 1.0}, {0.0, 2.0}}), ContractViolation);
  BandwidthTrace ok({{1.0, 5.0}});
  EXPECT_THROW(ok.at(0.5), ContractViolation);
}

TEST(BandwidthTrace, RandomWalkStaysInRange) {
  Rng rng(3);
  const double base = mbps(50.0);
  const auto tr = BandwidthTrace::random_walk(base, 1.0, 0.5, 4.0, 120.0, rng);
  for (const auto& seg : tr.segments()) {
    EXPECT_GE(seg.bandwidth, base / 4.0 - 1e-9);
    EXPECT_LE(seg.bandwidth, base * 4.0 + 1e-9);
  }
  EXPECT_GE(tr.segments().size(), 100u);
}

TEST(BandwidthTrace, GilbertAlternatesStates) {
  Rng rng(4);
  const auto tr =
      BandwidthTrace::gilbert(mbps(100.0), mbps(10.0), 5.0, 2.0, 200.0, rng);
  ASSERT_GE(tr.segments().size(), 4u);
  for (std::size_t i = 1; i < tr.segments().size(); ++i) {
    EXPECT_NE(tr.segments()[i].bandwidth, tr.segments()[i - 1].bandwidth);
  }
  // Time-weighted mean sits strictly between the two states, nearer good.
  const double mean = tr.mean(200.0);
  EXPECT_GT(mean, mbps(10.0));
  EXPECT_LT(mean, mbps(100.0));
}

TEST(FaultSchedule, EventsSortedByTime) {
  FaultSchedule s({{10.0, FaultTarget::Server, 1, false},
                   {2.0, FaultTarget::Link, 0, false},
                   {5.0, FaultTarget::Server, 0, false}});
  ASSERT_EQ(s.events().size(), 3u);
  EXPECT_DOUBLE_EQ(s.events()[0].time, 2.0);
  EXPECT_DOUBLE_EQ(s.events()[1].time, 5.0);
  EXPECT_DOUBLE_EQ(s.events()[2].time, 10.0);
}

TEST(FaultSchedule, LivenessQueries) {
  const auto s = FaultSchedule::server_crash(0, 10.0, 20.0);
  EXPECT_TRUE(s.server_up(0, 0.0));
  EXPECT_TRUE(s.server_up(0, 9.999));
  EXPECT_FALSE(s.server_up(0, 10.0));  // events at exactly t applied
  EXPECT_FALSE(s.server_up(0, 19.999));
  EXPECT_TRUE(s.server_up(0, 20.0));
  // Untouched targets are always up.
  EXPECT_TRUE(s.server_up(1, 15.0));
  EXPECT_TRUE(s.link_up(0, 15.0));
}

TEST(FaultSchedule, AvailabilityIntegratesDowntime) {
  const auto s = FaultSchedule::server_crash(0, 10.0, 20.0);
  EXPECT_NEAR(s.server_availability(0, 100.0), 0.9, 1e-12);
  EXPECT_NEAR(s.server_availability(1, 100.0), 1.0, 1e-12);
  // Downtime clipped at the horizon.
  EXPECT_NEAR(s.server_availability(0, 15.0), 10.0 / 15.0, 1e-12);
  // Permanent crash: down from 10 forever.
  const auto perm = FaultSchedule::server_crash(
      0, 10.0, std::numeric_limits<double>::infinity());
  EXPECT_EQ(perm.events().size(), 1u);
  EXPECT_NEAR(perm.server_availability(0, 40.0), 0.25, 1e-12);
}

TEST(FaultSchedule, ZeroDurationOutageIsInvisibleToAvailability) {
  const auto s = FaultSchedule::server_crash(0, 5.0, 5.0);
  EXPECT_NEAR(s.server_availability(0, 10.0), 1.0, 1e-12);
  // The momentary down state is still observable at the instant itself.
  EXPECT_EQ(s.events().size(), 2u);
}

TEST(FaultSchedule, MergedCombinesScripts) {
  const auto s = FaultSchedule::server_crash(0, 10.0, 20.0)
                     .merged(FaultSchedule::link_outage(0, 5.0, 8.0));
  EXPECT_EQ(s.events().size(), 4u);
  EXPECT_FALSE(s.link_up(0, 6.0));
  EXPECT_FALSE(s.server_up(0, 12.0));
  EXPECT_TRUE(s.server_up(0, 6.0));
}

TEST(FaultSchedule, ExponentialServersDeterministicPerSeed) {
  Rng rng(11);
  const auto a = FaultSchedule::exponential_servers(3, 20.0, 5.0, 200.0, rng);
  // Substream derivation keys off the construction seed, not draw history:
  // a used rng must produce the same script.
  Rng used(11);
  used.next_u64();
  used.uniform();
  const auto b =
      FaultSchedule::exponential_servers(3, 20.0, 5.0, 200.0, used);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (std::size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.events()[i].time, b.events()[i].time);
    EXPECT_EQ(a.events()[i].id, b.events()[i].id);
    EXPECT_EQ(a.events()[i].up, b.events()[i].up);
  }
  EXPECT_GT(a.events().size(), 0u);
  for (const auto& ev : a.events()) {
    EXPECT_LT(ev.time, 200.0);
    EXPECT_EQ(ev.target, FaultTarget::Server);
    EXPECT_GE(ev.id, 0);
    EXPECT_LT(ev.id, 3);
  }
  // Per-server events alternate down/up starting with a crash.
  for (std::int32_t s = 0; s < 3; ++s) {
    bool expect_up = false;
    for (const auto& ev : a.events()) {
      if (ev.id != s) continue;
      EXPECT_EQ(ev.up, expect_up);
      expect_up = !expect_up;
    }
  }
}

TEST(FaultSchedule, Validates) {
  EXPECT_THROW(FaultSchedule({{-1.0, FaultTarget::Server, 0, false}}),
               ContractViolation);
  EXPECT_THROW(FaultSchedule({{1.0, FaultTarget::Server, -2, false}}),
               ContractViolation);
  EXPECT_THROW(FaultSchedule::server_crash(0, 10.0, 5.0), ContractViolation);
  Rng rng(1);
  EXPECT_THROW(FaultSchedule::exponential_servers(2, 0.0, 1.0, 10.0, rng),
               ContractViolation);
  EXPECT_TRUE(FaultSchedule().empty());
}

TEST(TelemetryChannelTest, PassThroughDeliversTruthFresh) {
  EXPECT_TRUE(TelemetryChannelOptions{}.pass_through());
  TelemetryChannel ch(TelemetryChannelOptions{}, {mbps(40.0)}, 2, 7);
  std::vector<double> bw = {mbps(25.0)};
  std::vector<bool> alive = {true, false};
  std::vector<bool> bw_fresh, alive_fresh;
  std::vector<double> bw_age;
  ch.sample(1.0, bw, alive, bw_fresh, bw_age, alive_fresh);
  EXPECT_DOUBLE_EQ(bw[0], mbps(25.0));
  EXPECT_TRUE(alive[0]);
  EXPECT_FALSE(alive[1]);
  EXPECT_TRUE(bw_fresh[0]);
  EXPECT_DOUBLE_EQ(bw_age[0], 0.0);
  EXPECT_TRUE(alive_fresh[0]);
}

TEST(TelemetryChannelTest, DeterministicForSeed) {
  TelemetryChannelOptions opts;
  opts.drop_prob = 0.3;
  opts.noise_sigma = 0.2;
  opts.flip_prob = 0.1;
  EXPECT_FALSE(opts.pass_through());
  TelemetryChannel a(opts, {mbps(40.0), mbps(20.0)}, 2, 99);
  TelemetryChannel b(opts, {mbps(40.0), mbps(20.0)}, 2, 99);
  for (int t = 1; t <= 32; ++t) {
    std::vector<double> bw_a = {mbps(40.0), mbps(20.0)};
    std::vector<double> bw_b = bw_a;
    std::vector<bool> alive_a = {true, t % 3 != 0};
    std::vector<bool> alive_b = alive_a;
    std::vector<bool> fa, fb, la, lb;
    std::vector<double> aa, ab;
    a.sample(t, bw_a, alive_a, fa, aa, la);
    b.sample(t, bw_b, alive_b, fb, ab, lb);
    EXPECT_EQ(bw_a, bw_b);
    EXPECT_EQ(alive_a, alive_b);
    EXPECT_EQ(fa, fb);
    EXPECT_EQ(aa, ab);
    EXPECT_EQ(la, lb);
  }
}

TEST(TelemetryChannelTest, DelayServesTheOldWorld) {
  TelemetryChannelOptions opts;
  opts.delay = 5.0;
  TelemetryChannel ch(opts, {100.0}, 0, 1);
  std::vector<bool> alive, fresh, alive_fresh;
  std::vector<double> age;

  // The world changes to 999 at t=3, but nothing that new can be delivered
  // until the 5s propagation delay elapses.
  std::vector<double> bw = {999.0};
  ch.sample(3.0, bw, alive, fresh, age, alive_fresh);
  EXPECT_DOUBLE_EQ(bw[0], 100.0) << "initial value still in flight";
  EXPECT_DOUBLE_EQ(age[0], 3.0);
  EXPECT_TRUE(fresh[0]) << "delay ages readings; it does not drop them";

  bw = {999.0};
  ch.sample(6.0, bw, alive, fresh, age, alive_fresh);
  EXPECT_DOUBLE_EQ(bw[0], 100.0) << "t=3 sample not yet deliverable at t=6";

  bw = {999.0};
  ch.sample(9.0, bw, alive, fresh, age, alive_fresh);
  EXPECT_DOUBLE_EQ(bw[0], 999.0) << "t=3 sample delivered after the delay";
  EXPECT_DOUBLE_EQ(age[0], 6.0);
}

TEST(TelemetryChannelTest, DropsRepeatLastDeliveryAndAge) {
  TelemetryChannelOptions opts;
  opts.drop_prob = 0.5;
  TelemetryChannel ch(opts, {100.0}, 1, 3);
  std::vector<bool> alive = {true};
  std::vector<bool> fresh, alive_fresh;
  std::vector<double> age;
  bool saw_drop = false;
  double last_delivered = 100.0;
  for (int t = 1; t <= 64 && !saw_drop; ++t) {
    std::vector<double> bw = {100.0 + t};
    ch.sample(t, bw, alive, fresh, age, alive_fresh);
    if (fresh[0]) {
      last_delivered = bw[0];
      EXPECT_DOUBLE_EQ(age[0], 0.0);
    } else {
      saw_drop = true;
      EXPECT_DOUBLE_EQ(bw[0], last_delivered)
          << "a dropped report repeats the previous delivery";
      EXPECT_GT(age[0], 0.0) << "and the repeat is visibly aged";
    }
  }
  EXPECT_TRUE(saw_drop) << "p=0.5 over 64 ticks must drop at least once";
}

TEST(TelemetryChannelTest, QuantizationSnapsToGrid) {
  TelemetryChannelOptions opts;
  opts.quantum = 64.0;
  TelemetryChannel ch(opts, {100.0}, 0, 5);
  std::vector<bool> alive, fresh, alive_fresh;
  std::vector<double> age;
  std::vector<double> bw = {100.0};
  ch.sample(1.0, bw, alive, fresh, age, alive_fresh);
  EXPECT_DOUBLE_EQ(bw[0], 128.0) << "100 rounds to the nearest 64 multiple";
  bw = {10.0};
  ch.sample(2.0, bw, alive, fresh, age, alive_fresh);
  EXPECT_DOUBLE_EQ(bw[0], 64.0) << "quantization floors at one quantum";
}

TEST(TelemetryChannelTest, ValidatesOptionsAndArity) {
  TelemetryChannelOptions bad;
  bad.drop_prob = 1.0;
  EXPECT_THROW(TelemetryChannel(bad, {1.0}, 1, 1), ContractViolation);
  bad = TelemetryChannelOptions{};
  bad.delay = -1.0;
  EXPECT_THROW(TelemetryChannel(bad, {1.0}, 1, 1), ContractViolation);

  TelemetryChannel ch(TelemetryChannelOptions{}, {1.0}, 1, 1);
  std::vector<double> bw = {1.0, 2.0};  // two cells, channel built with one
  std::vector<bool> alive = {true};
  std::vector<bool> fresh, alive_fresh;
  std::vector<double> age;
  EXPECT_THROW(ch.sample(1.0, bw, alive, fresh, age, alive_fresh),
               ContractViolation);
}

}  // namespace
}  // namespace scalpel
