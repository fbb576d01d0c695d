// F17 — Deadline-aware overload control: offered load is swept through and
// past the saturation point of a fixed joint deployment, and a scripted
// burst-and-recover trace stresses the runtime controller. Compared schemes:
//   unprotected   — unbounded queues, no control (the seed behaviour)
//   shed-only     — bounded queues + deadline-expiry shedding, no controller
//   throttle-only — static admission gate from admission::propose_throttle
//                   (full-accuracy plans, traffic refused)
//   ladder        — online controller walking a precomputed surgery-based
//                   degradation ladder, admission gate only as last resort
// All schemes see the identical arrival seed, so gaps are attributable to
// the overload policy alone. Shed/expired tasks count as deadline misses —
// nobody wins by dropping work.

#include <cstdio>
#include <optional>
#include <vector>

#include "bench_common.hpp"
#include "core/admission.hpp"
#include "core/online.hpp"
#include "obs/timeseries.hpp"

using namespace scalpel;

namespace {

struct Row {
  std::string scheme;
  SimMetrics m;
  std::size_t degradations = 0;
  std::size_t final_rung = 0;
};

OverloadOptions bounded_queues() {
  OverloadOptions o;
  o.policy = OverloadPolicy::ShedExpired;
  o.device_queue_limit = 32;
  o.upload_queue_limit = 8;
  o.server_queue_limit = 8;
  return o;
}

OnlineController::Options controller_opts() {
  OnlineController::Options o;
  o.joint = bench::joint_opts();
  // One-second observation windows put Poisson noise on the offered-rate
  // estimate; 0.8 keeps recovery responsive without letting single noisy
  // windows break the calm streak.
  o.overload.recover_margin = 0.8;
  return o;
}

Simulator::Options base_sim(double horizon) {
  Simulator::Options o;
  o.horizon = horizon;
  o.warmup = 10.0;
  o.seed = 17;
  return o;
}

Row run_scheme(const ProblemInstance& instance, const Decision& d,
               const ClusterTopology& deployed_topo,
               const std::string& scheme, Simulator::Options opts) {
  if (scheme == "shed-only") {
    opts.overload = bounded_queues();
    return {scheme, Simulator(instance, d, opts).run()};
  }
  if (scheme == "throttle-only") {
    const auto plan = admission::propose_throttle(instance, d, 0.9);
    std::vector<double> gate;
    const auto& topo = instance.topology();
    for (std::size_t i = 0; i < plan.admitted_rate.size(); ++i) {
      const double offered =
          topo.device(static_cast<DeviceId>(i)).arrival_rate;
      gate.push_back(std::min(1.0, plan.admitted_rate[i] / offered));
    }
    Simulator sim(instance, d, opts);
    sim.set_admission(gate);
    return {scheme, sim.run()};
  }
  if (scheme == "ladder") {
    opts.overload = bounded_queues();
    opts.control_interval = 1.0;
    // The controller is anchored to the *deployed* (nominal-rate) topology:
    // it never re-solves for the swept load, so its whole advantage over
    // the static baselines is the ladder + last-resort gate.
    OnlineController ctl(deployed_topo, controller_opts());
    Simulator sim(instance, ctl.decision(), opts);
    sim.set_controller(ctl.callback());
    Row r{scheme, sim.run()};
    r.degradations = ctl.degradations();
    r.final_rung = ctl.current_rung();
    return r;
  }
  return {scheme, Simulator(instance, d, opts).run()};  // unprotected
}

void print_ladder_profile(const ProblemInstance& instance,
                          const Decision& d) {
  const auto ladder =
      build_degradation_ladder(instance, d, bench::joint_opts());
  std::printf("degradation ladder of the joint plan (capacity = min over "
              "devices of rung/base sustainable rate):\n");
  Table t({"rung", "accuracy floor", "predicted accuracy", "capacity x",
           "quantized uploads"});
  for (std::size_t k = 0; k < ladder.size(); ++k) {
    double capacity_x = 1e9;
    bool quantized = false;
    for (std::size_t i = 0; i < ladder[k].plans.size(); ++i) {
      if (ladder[0].sustainable[i] > 0.0 &&
          std::isfinite(ladder[0].sustainable[i])) {
        capacity_x = std::min(capacity_x, ladder[k].sustainable[i] /
                                              ladder[0].sustainable[i]);
      }
      quantized = quantized || ladder[k].plans[i].quantize_upload;
    }
    t.add_row({Table::num(static_cast<std::int64_t>(k)),
               Table::num(ladder[k].accuracy_floor, 3),
               Table::num(ladder[k].predicted_accuracy, 3),
               Table::num(capacity_x, 2), quantized ? "yes" : "no"});
  }
  std::printf("%s\n", t.to_string().c_str());
}

}  // namespace

int main() {
  bench::banner("F17", "Overload control: load sweep and burst recovery");
  const auto base_topo = clusters::small_lab();
  const ProblemInstance base_instance(base_topo);
  const Decision base_d = bench::run_scheme(base_instance, "joint");

  // Saturation: the load multiplier at which the most loaded device hits
  // its sustainable rate under the (fixed) joint deployment.
  double sat = 1e9;
  for (std::size_t i = 0; i < base_d.per_device.size(); ++i) {
    const double s = admission::max_sustainable_rate(
        base_instance, static_cast<DeviceId>(i), base_d.per_device[i], 1.0);
    const double rate =
        base_topo.device(static_cast<DeviceId>(i)).arrival_rate;
    if (std::isfinite(s)) sat = std::min(sat, s / rate);
  }
  std::printf("saturation multiplier of the base joint plan: %.2fx the lab's "
              "nominal offered load\n\n",
              sat);

  print_ladder_profile(base_instance, base_d);

  const std::vector<std::string> schemes = {"unprotected", "shed-only",
                                            "throttle-only", "ladder"};
  std::printf("-- offered-load sweep (multiples of saturation; deadline\n"
              "   satisfaction counts shed/expired tasks as misses) --\n");
  for (const double mult : {0.8, 1.0, 1.2, 1.5, 2.0}) {
    ClusterTopology topo = base_topo;
    for (const auto& dev : base_topo.devices()) {
      topo.set_device_arrival_rate(dev.id,
                                   dev.arrival_rate * mult * sat);
    }
    const ProblemInstance instance(topo);
    Decision d;
    d.scheme = base_d.scheme;
    d.per_device = base_d.per_device;
    evaluate_decision(instance, d);

    std::printf("load %.1fx saturation:\n", mult);
    Table t({"scheme", "deadline sat.", "accuracy", "completed", "shed",
             "expired", "p99 ms", "rung@end"});
    for (const auto& scheme : schemes) {
      const Row r =
          run_scheme(instance, d, base_topo, scheme, base_sim(120.0));
      t.add_row({r.scheme, Table::num(r.m.deadline_satisfaction, 3),
                 Table::num(r.m.measured_accuracy, 3),
                 Table::num(static_cast<std::int64_t>(r.m.completed)),
                 Table::num(static_cast<std::int64_t>(r.m.shed)),
                 Table::num(static_cast<std::int64_t>(r.m.expired)),
                 bench::fmt_ms(r.m.latency.p99()),
                 scheme == "ladder"
                     ? Table::num(static_cast<std::int64_t>(r.final_rung))
                     : "-"});
    }
    std::printf("%s\n", t.to_string().c_str());
  }

  // Burst-and-recover: calm at 0.5x saturation, a 4x burst (2x saturation)
  // for 30 s, then calm again. The ladder must absorb the burst by
  // degrading and walk all the way back to the base plan afterwards.
  std::printf("-- burst-and-recover trace (0.5x saturation, 4x burst over\n"
              "   t in [40, 70) s, horizon 140 s) --\n");
  ClusterTopology topo = base_topo;
  for (const auto& dev : base_topo.devices()) {
    topo.set_device_arrival_rate(dev.id, dev.arrival_rate * 0.5 * sat);
  }
  const ProblemInstance instance(topo);
  Decision d;
  d.scheme = base_d.scheme;
  d.per_device = base_d.per_device;
  evaluate_decision(instance, d);

  auto opts = base_sim(140.0);
  opts.rate_bursts.push_back(RateBurst{40.0, 70.0, 4.0});
  opts.overload = bounded_queues();
  opts.control_interval = 1.0;
  opts.obs_interval = 1.0;

  OnlineController ctl(topo, controller_opts());
  // Sampled every second, after the controller tick of the same instant;
  // the table below aggregates the samples into 10-s windows.
  TimeSeriesRecorder rec;
  ctl.register_sources(rec);
  rec.register_gauge("bench.rung_accuracy", [&ctl] {
    const auto& ladder = ctl.ladder();  // built at the first tick
    return ladder.empty() ? 0.0
                          : ladder[ctl.current_rung()].predicted_accuracy;
  });
  opts.recorder = &rec;
  Simulator sim(instance, ctl.decision(), opts);
  std::vector<std::pair<double, std::size_t>> rung_trace;
  sim.set_controller([&, tick = ctl.callback()](const Observation& o) {
    ControlAction a = tick(o);
    if (rung_trace.empty() || rung_trace.back().second != ctl.current_rung()) {
      rung_trace.emplace_back(o.time, ctl.current_rung());
    }
    return a;
  });
  const SimMetrics m = sim.run();

  std::printf("rung timeline (time s -> rung): ");
  for (const auto& [t, r] : rung_trace) std::printf(" %.0f->%zu", t, r);
  std::printf("\n");
  std::printf("degradations %zu, recoveries %zu, throttle activations %zu, "
              "final rung %zu, gate %s\n",
              ctl.degradations(), ctl.recoveries(),
              ctl.throttle_activations(), ctl.current_rung(),
              ctl.admit_fraction().empty() ? "open" : "engaged");
  std::printf("run: deadline sat %.3f, accuracy %.3f, shed %zu, expired "
              "%zu\n\n",
              m.deadline_satisfaction, m.measured_accuracy, m.shed,
              m.expired);

  // Per 10-s window: mean of the in-flight and rung-accuracy samples, and
  // completions and drops (shed + expired) per second from the cumulative
  // counters' growth over the window.
  constexpr std::size_t kWindow = 10;  // 1-s samples per table row
  const std::size_t in_flight = rec.column_index("sim.in_flight");
  const std::size_t completed = rec.column_index("sim.completed");
  const std::size_t shed = rec.column_index("sim.shed");
  const std::size_t expired = rec.column_index("sim.expired");
  const std::size_t accuracy = rec.column_index("bench.rung_accuracy");
  Table ts({"window start s", "in flight", "completions/s", "accuracy",
            "shed/s"});
  double done_before = 0.0;
  double dropped_before = 0.0;
  for (std::size_t lo = 0; lo + kWindow <= rec.size(); lo += kWindow) {
    double flight_sum = 0.0;
    double accuracy_sum = 0.0;
    for (std::size_t r = lo; r < lo + kWindow; ++r) {
      flight_sum += rec.value(r, in_flight);
      accuracy_sum += rec.value(r, accuracy);
    }
    const std::size_t last = lo + kWindow - 1;
    const double done = rec.value(last, completed);
    const double dropped = rec.value(last, shed) + rec.value(last, expired);
    const double window_s = static_cast<double>(kWindow);
    ts.add_row({Table::num(static_cast<std::int64_t>(lo)),
                Table::num(flight_sum / window_s, 1),
                Table::num((done - done_before) / window_s, 1),
                Table::num(accuracy_sum / window_s, 3),
                Table::num((dropped - dropped_before) / window_s, 1)});
    done_before = done;
    dropped_before = dropped;
  }
  std::printf("%s\n", ts.to_string().c_str());

  std::printf(
      "Expected shape: past saturation the unprotected queues blow up (p99\n"
      "explodes, satisfaction collapses); shed-only keeps latency bounded\n"
      "but pays every dropped task as a miss; throttle-only refuses a fixed\n"
      "slice at full accuracy. The ladder first buys capacity with cheaper\n"
      "surgery plans (accuracy steps down the table above, monotonically)\n"
      "and only then sheds, so it holds the highest deadline satisfaction\n"
      "at and past saturation. Through the burst the rung timeline walks\n"
      "down, the accuracy column dips, and both recover to the base plan\n"
      "after the burst clears.\n");
  return 0;
}
