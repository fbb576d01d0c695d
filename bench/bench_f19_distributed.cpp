// F19 — Partition-tolerant distributed control: per-cell controllers and a
// global coordinator exchange typed messages over a deterministic faulty
// fabric (delay / jitter / loss), with epoch-numbered grants, bounded-
// staleness pricing, and coordinator-loss local autonomy.
//
// Part 1 sweeps fabric quality on a static workload and reports rounds-to-
// converge plus the optimality gap of the merged distributed plan against a
// centralized joint solve given the *same* optimizer budget. Part 2 runs the
// DES under data-plane server churn while the coordinator itself crashes on
// an exponential MTBF/MTTR process, and compares deadline satisfaction
// against a frozen centralized plan that never reacts. The harshest point
// re-runs on the engine at 4 shards and must match the one-shard run
// bit-for-bit — the whole plane lives behind the ObservingController seam.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/objective.hpp"
#include "ctrl/plane.hpp"
#include "sim/shard.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

using namespace scalpel;

namespace {

ProblemInstance campus_instance() {
  clusters::CampusOptions copts;
  copts.num_devices = 8;
  copts.num_servers = 3;
  copts.devices_per_cell = 2;
  copts.seed = 7;
  return ProblemInstance(clusters::campus(copts));
}

Observation observe_static(double t, const ClusterTopology& topo) {
  Observation o;
  o.time = t;
  for (const auto& cell : topo.cells()) o.cell_bandwidth.push_back(cell.bandwidth);
  o.server_alive.assign(topo.servers().size(), true);
  return o;
}

/// Cheap local-solver budget for the DES sweep (cells re-solve on liveness
/// flips mid-run; Part 1 uses the full bench budget for a fair gap).
JointOptions light_opts() {
  JointOptions o;
  o.max_iterations = 2;
  o.dp_coverage_bins = 40;
  o.theta_grid = {0.0, 0.3, 0.6};
  return o;
}

struct FabricPoint {
  std::string name;
  ControlFabricOptions fabric;
};

struct DesRow {
  SimMetrics m;
  std::uint64_t local_solves = 0;
  std::uint64_t coordinator_losses = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t stale_events = 0;
  std::uint64_t dead_letters = 0;
  std::uint64_t plan_changes = 0;
  std::uint64_t coordinator_crashes = 0;
};

DistributedPlaneOptions plane_opts(const ControlFabricOptions& fabric,
                                   const JointOptions& joint,
                                   FaultSchedule controller_faults) {
  DistributedPlaneOptions po;
  po.fabric = fabric;
  po.cell.joint = joint;
  po.controller_faults = std::move(controller_faults);
  po.seed = 19;
  return po;
}

Simulator::Options des_opts(double horizon, const FaultSchedule& data_faults) {
  Simulator::Options o;
  o.horizon = horizon;
  o.warmup = 4.0;
  o.seed = 23;
  o.control_interval = 1.0;
  o.faults.schedule = data_faults;
  o.faults.policy = FaultPolicy::RetryOffload;
  o.faults.max_retries = 20;
  o.faults.retry_backoff = 0.25;
  o.faults.retry_timeout = 15.0;
  return o;
}

}  // namespace

int main() {
  bench::banner("F19", "Distributed control over a faulty fabric");
  const ProblemInstance instance = campus_instance();
  const auto& topo = instance.topology();
  const std::size_t num_cells = topo.cells().size();

  Decision central = bench::run_scheme(instance, "joint");
  evaluate_decision(instance, central);
  std::printf(
      "topology: %zu devices / %zu servers / %zu cells; centralized joint\n"
      "solve mean latency %s (the gap reference; identical optimizer budget\n"
      "for the cells' local solves).\n\n",
      topo.devices().size(), topo.servers().size(), num_cells,
      bench::fmt_ms(central.mean_latency).c_str());

  // --- Part 1: convergence + optimality gap vs fabric quality -------------
  std::printf(
      "-- Part 1: static workload, 40 control ticks; damped tatonnement\n"
      "   (alpha 0.5) with epoch-numbered grants; merged plan re-evaluated\n"
      "   on the full instance --\n");
  const std::vector<FabricPoint> fabrics = {
      {"clean", {0.0, 0.0, 0.0}},
      {"mild", {0.2, 0.5, 0.05}},
      {"harsh", {0.4, 1.0, 0.20}},
      {"brutal", {0.5, 2.0, 0.40}},
  };
  Table t1({"fabric", "delay s", "jitter s", "drop", "rounds", "epoch",
            "converged@tick", "msgs lost", "stale evts", "gap"});
  double clean_gap = 1.0;
  bool clean_converged = false;
  for (const auto& fp : fabrics) {
    DistributedControlPlane plane(
        topo, plane_opts(fp.fabric, bench::joint_opts(), {}));
    double converged_at = -1.0;
    for (int t = 0; t < 40; ++t) {
      (void)plane.tick(observe_static(static_cast<double>(t), topo));
      if (converged_at < 0.0 && plane.converged())
        converged_at = static_cast<double>(t);
    }
    Decision merged = plane.merged();
    evaluate_decision(instance, merged);
    const double gap = merged.mean_latency / central.mean_latency - 1.0;
    if (fp.name == "clean") {
      clean_gap = gap;
      clean_converged = plane.converged();
    }
    t1.add_row({fp.name, Table::num(fp.fabric.delay, 1),
                Table::num(fp.fabric.jitter, 1),
                Table::num(fp.fabric.drop_prob, 2),
                Table::num(static_cast<std::int64_t>(
                    plane.coordinator().realloc_rounds())),
                Table::num(static_cast<std::int64_t>(plane.coordinator().epoch())),
                converged_at < 0.0 ? "-" : Table::num(converged_at, 0),
                Table::num(static_cast<std::int64_t>(plane.fabric().dropped())),
                Table::num(static_cast<std::int64_t>(plane.stale_events())),
                Table::num(100.0 * gap, 2) + "%"});
  }
  std::printf("%s\n", t1.to_string().c_str());
  SCALPEL_REQUIRE(clean_converged,
                  "F19: the plane must converge on a clean fabric");
  SCALPEL_REQUIRE(clean_gap <= 0.05,
                  "F19: clean-fabric optimality gap above 5%");

  // --- Part 2: deadline satisfaction while the coordinator crashes --------
  const double horizon = 60.0;
  const Rng data_rng(9100);
  const auto data_faults = FaultSchedule::exponential_servers(
      topo.servers().size(), 15.0, 5.0, horizon, data_rng);
  std::printf(
      "-- Part 2: DES, %.0f s horizon; data-plane server churn (MTBF 15 s /\n"
      "   MTTR 5 s, RetryOffload) identical for every scheme; the\n"
      "   coordinator endpoint crashes on its own MTBF/MTTR 4 s process --\n",
      horizon);

  const Simulator::Options frozen_opts = des_opts(horizon, data_faults);
  Simulator frozen_sim(instance, central, frozen_opts);
  const SimMetrics frozen = frozen_sim.run();
  std::printf(
      "frozen centralized plan: deadline sat %.3f, failed %zu, retried %zu\n\n",
      frozen.deadline_satisfaction, frozen.failed, frozen.retried);

  const ControlFabricOptions mild{0.2, 0.5, 0.05};
  Table t2({"coord MTBF", "deadline sat.", "frozen", "failed", "resteered",
            "coord down", "losses", "rejoins", "local solves", "stale",
            "dead letters"});
  const std::vector<double> mtbfs = {0.0, 20.0, 10.0, 5.0};  // 0 = no faults
  DesRow harshest;
  for (const double mtbf : mtbfs) {
    FaultSchedule coord_faults;
    if (mtbf > 0.0) {
      const Rng coord_rng(7100 + static_cast<std::uint64_t>(mtbf));
      coord_faults =
          FaultSchedule::exponential_servers(1, mtbf, 4.0, horizon, coord_rng);
    }
    DistributedControlPlane plane(
        topo, plane_opts(mild, light_opts(), coord_faults));
    Simulator sim(instance, central, des_opts(horizon, data_faults));
    sim.set_controller(plane.callback());
    DesRow r;
    r.m = sim.run();
    r.local_solves = plane.local_solves();
    r.coordinator_losses = plane.coordinator_losses();
    r.rejoins = plane.rejoins();
    r.stale_events = plane.stale_events();
    r.dead_letters = plane.dead_letters();
    r.plan_changes = plane.plan_changes();
    r.coordinator_crashes = plane.coordinator_crashes();
    if (mtbf == 5.0) harshest = r;
    t2.add_row({mtbf > 0.0 ? Table::num(mtbf, 0) + " s" : "no faults",
                Table::num(r.m.deadline_satisfaction, 3),
                Table::num(frozen.deadline_satisfaction, 3),
                Table::num(static_cast<std::int64_t>(r.m.failed)),
                Table::num(static_cast<std::int64_t>(r.m.resteered)),
                Table::num(static_cast<std::int64_t>(r.coordinator_crashes)),
                Table::num(static_cast<std::int64_t>(r.coordinator_losses)),
                Table::num(static_cast<std::int64_t>(r.rejoins)),
                Table::num(static_cast<std::int64_t>(r.local_solves)),
                Table::num(static_cast<std::int64_t>(r.stale_events)),
                Table::num(static_cast<std::int64_t>(r.dead_letters))});
    SCALPEL_REQUIRE(
        r.m.deadline_satisfaction > frozen.deadline_satisfaction,
        "F19: distributed control must beat the frozen plan at every "
        "coordinator MTBF");
  }
  std::printf("%s\n", t2.to_string().c_str());

  // --- Sharded-engine bit-identity at the harshest point ------------------
  {
    const Rng coord_rng(7100 + 5);
    const auto coord_faults =
        FaultSchedule::exponential_servers(1, 5.0, 4.0, horizon, coord_rng);
    DistributedControlPlane plane(
        topo, plane_opts(mild, light_opts(), coord_faults));
    ShardOptions so;
    so.shards = 4;
    so.threads = 2;
    ShardedSimulator sharded(instance, central, des_opts(horizon, data_faults),
                             so);
    sharded.set_controller(plane.callback());
    const SimMetrics sm = sharded.run();
    SCALPEL_REQUIRE(sm.completed == harshest.m.completed &&
                        sm.failed == harshest.m.failed &&
                        sm.deadline_satisfaction ==
                            harshest.m.deadline_satisfaction,
                    "F19: sharded engine diverged from the one-shard run");
    SCALPEL_REQUIRE(plane.local_solves() == harshest.local_solves &&
                        plane.coordinator_losses() ==
                            harshest.coordinator_losses &&
                        plane.rejoins() == harshest.rejoins &&
                        plane.plan_changes() == harshest.plan_changes,
                    "F19: control-plane counters diverged on the sharded "
                    "engine");
    std::printf(
        "sharded engine (4 shards x 2 threads) replayed the harshest point\n"
        "bit-identically: deadline sat %.3f, %zu completed, %llu local "
        "solves.\n\n",
        sm.deadline_satisfaction, sm.completed,
        static_cast<unsigned long long>(plane.local_solves()));
  }

  std::printf(
      "Expected shape: tatonnement rounds grow with fabric loss but the gap\n"
      "stays small — lost grants are repaired by anti-entropy re-grants and\n"
      "stale slices are priced conservatively, never trusted fully. Under\n"
      "coordinator churn the cells drop into validated local autonomy (the\n"
      "losses/rejoins columns) and keep re-solving around dead servers, so\n"
      "deadline satisfaction stays strictly above the frozen plan at every\n"
      "MTBF; the fabric, epochs and crashes replay bit-identically on the\n"
      "sharded engine.\n");
  return 0;
}
