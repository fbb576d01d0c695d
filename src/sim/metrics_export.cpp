#include "sim/metrics_export.hpp"

#include "sim/runner.hpp"
#include "sim/simulator.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace scalpel {

namespace {

Json samples_summary_json(const Samples& s) {
  Json o = Json::object();
  o.set("count", Json::number(static_cast<double>(s.count())));
  if (!s.empty()) {
    o.set("mean", Json::number(s.mean()));
    o.set("p50", Json::number(s.p50()));
    o.set("p95", Json::number(s.p95()));
    o.set("p99", Json::number(s.p99()));
    o.set("min", Json::number(s.min()));
    o.set("max", Json::number(s.max()));
  }
  return o;
}

Json summary_json(const Summary& s) {
  Json o = Json::object();
  o.set("n", Json::number(static_cast<double>(s.n)));
  o.set("mean", Json::number(s.mean));
  o.set("stddev", Json::number(s.stddev));
  o.set("ci95", Json::number(s.ci95));
  return o;
}

void set_count(Json& o, const char* key, std::size_t v) {
  o.set(key, Json::number(static_cast<double>(v)));
}

}  // namespace

Json sim_metrics_to_json(const SimMetrics& m) {
  Json o = Json::object();
  set_count(o, "arrived", m.arrived);
  set_count(o, "completed", m.completed);
  set_count(o, "failed", m.failed);
  set_count(o, "shed", m.shed);
  set_count(o, "expired", m.expired);
  set_count(o, "retried", m.retried);
  set_count(o, "resteered", m.resteered);
  o.set("deadline_satisfaction", Json::number(m.deadline_satisfaction));
  o.set("measured_accuracy", Json::number(m.measured_accuracy));
  o.set("mean_task_energy", Json::number(m.mean_task_energy));
  o.set("offload_fraction", Json::number(m.offload_fraction));
  o.set("availability", Json::number(m.availability));
  o.set("horizon", Json::number(m.horizon));
  o.set("latency", samples_summary_json(m.latency));
  o.set("outage_latency", samples_summary_json(m.outage_latency));

  Json conservation = Json::object();
  set_count(conservation, "arrived", m.arrived);
  set_count(conservation, "completed_all", m.completed_all);
  set_count(conservation, "failed_all", m.failed_all);
  set_count(conservation, "shed_all", m.shed_all);
  set_count(conservation, "in_flight_end", m.in_flight_end);
  o.set("conservation", std::move(conservation));

  Json util = Json::array();
  for (double u : m.server_utilization) util.push_back(Json::number(u));
  o.set("server_utilization", std::move(util));

  Json devices = Json::array();
  for (const auto& dm : m.per_device) {
    Json d = Json::object();
    set_count(d, "arrived", dm.arrived);
    set_count(d, "completed", dm.completed);
    set_count(d, "failed", dm.failed);
    set_count(d, "shed", dm.shed);
    set_count(d, "expired", dm.expired);
    set_count(d, "resteered", dm.resteered);
    set_count(d, "retries", dm.retries);
    set_count(d, "deadline_met", dm.deadline_met);
    set_count(d, "deadline_total", dm.deadline_total);
    set_count(d, "offloaded", dm.offloaded);
    d.set("latency", samples_summary_json(dm.latency));
    Json exits = Json::array();
    for (std::size_t e : dm.exit_histogram) {
      exits.push_back(Json::number(static_cast<double>(e)));
    }
    d.set("exit_histogram", std::move(exits));
    devices.push_back(std::move(d));
  }
  o.set("per_device", std::move(devices));
  return o;
}

Table sim_metrics_to_table(const SimMetrics& m) {
  Table t({"metric", "value"});
  auto count = [&](const char* name, std::size_t v) {
    t.add_row({name, Table::num(static_cast<std::int64_t>(v))});
  };
  auto real = [&](const char* name, double v) {
    t.add_row({name, Table::num(v, 6)});
  };
  count("arrived", m.arrived);
  count("completed", m.completed);
  count("failed", m.failed);
  count("shed", m.shed);
  count("expired", m.expired);
  count("retried", m.retried);
  count("resteered", m.resteered);
  count("completed_all", m.completed_all);
  count("failed_all", m.failed_all);
  count("shed_all", m.shed_all);
  count("in_flight_end", m.in_flight_end);
  real("deadline_satisfaction", m.deadline_satisfaction);
  real("measured_accuracy", m.measured_accuracy);
  real("mean_task_energy", m.mean_task_energy);
  real("offload_fraction", m.offload_fraction);
  real("availability", m.availability);
  real("horizon", m.horizon);
  if (!m.latency.empty()) {
    real("latency_mean_s", m.latency.mean());
    real("latency_p50_s", m.latency.p50());
    real("latency_p95_s", m.latency.p95());
    real("latency_p99_s", m.latency.p99());
  }
  return t;
}

Json replicated_metrics_to_json(const ReplicatedMetrics& agg) {
  Json o = Json::object();
  set_count(o, "replications", agg.replications.size());
  set_count(o, "arrived", agg.arrived);
  set_count(o, "completed", agg.completed);
  set_count(o, "failed", agg.failed);
  set_count(o, "shed", agg.shed);
  set_count(o, "expired", agg.expired);
  Json summaries = Json::object();
  summaries.set("mean_latency", summary_json(summarize(agg.mean_latency)));
  summaries.set("p95_latency", summary_json(summarize(agg.p95_latency)));
  summaries.set("p99_latency", summary_json(summarize(agg.p99_latency)));
  summaries.set("deadline_satisfaction",
                summary_json(summarize(agg.deadline_satisfaction)));
  summaries.set("accuracy", summary_json(summarize(agg.accuracy)));
  summaries.set("task_energy", summary_json(summarize(agg.task_energy)));
  summaries.set("offload_fraction",
                summary_json(summarize(agg.offload_fraction)));
  summaries.set("throughput", summary_json(summarize(agg.throughput)));
  summaries.set("availability", summary_json(summarize(agg.availability)));
  summaries.set("failed_fraction",
                summary_json(summarize(agg.failed_fraction)));
  summaries.set("shed_fraction", summary_json(summarize(agg.shed_fraction)));
  o.set("summaries", std::move(summaries));
  Json reps = Json::array();
  for (const auto& m : agg.replications) {
    reps.push_back(sim_metrics_to_json(m));
  }
  o.set("per_replication", std::move(reps));
  return o;
}

bool write_sim_metrics(const SimMetrics& m, const std::string& path) {
  if (path.ends_with(".csv")) return write_csv(sim_metrics_to_table(m), path);
  return write_json_file(
      path, [&](JsonWriter& w) { w.value(sim_metrics_to_json(m)); });
}

bool write_replicated_metrics(const ReplicatedMetrics& agg,
                              const std::string& path) {
  if (!path.ends_with(".csv")) {
    return write_json_file(
        path, [&](JsonWriter& w) { w.value(replicated_metrics_to_json(agg)); });
  }
  Table t({"rep", "arrived", "completed", "failed", "shed", "expired",
           "mean_latency_s", "p95_s", "p99_s", "deadline_sat", "accuracy"});
  auto count = [](std::size_t v) {
    return Table::num(static_cast<std::int64_t>(v));
  };
  for (std::size_t r = 0; r < agg.replications.size(); ++r) {
    const SimMetrics& m = agg.replications[r];
    const bool none = m.latency.empty();
    t.add_row({count(r), count(m.arrived), count(m.completed),
               count(m.failed), count(m.shed), count(m.expired),
               Table::num(none ? 0.0 : m.latency.mean(), 6),
               Table::num(none ? 0.0 : m.latency.p95(), 6),
               Table::num(none ? 0.0 : m.latency.p99(), 6),
               Table::num(m.deadline_satisfaction, 4),
               Table::num(m.measured_accuracy, 4)});
  }
  return write_csv(t, path);
}

}  // namespace scalpel
