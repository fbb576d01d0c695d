#include "core/serialize.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace scalpel::serialize {
namespace {

Json profile_to_json(const ComputeProfile& p) {
  Json j = Json::object();
  j.set("name", Json::string(p.name));
  j.set("peak_flops", Json::number(p.peak_flops));
  j.set("mem_bw", Json::number(p.mem_bw));
  j.set("layer_overhead", Json::number(p.layer_overhead));
  // Only the calibrated kinds: the rest read back as the default.
  Json eff = Json::object();
  for (std::size_t k = 0; k < kLayerKindCount; ++k) {
    const auto kind = static_cast<LayerKind>(k);
    if (p.efficiency[kind] != EfficiencyTable::kDefault) {
      eff.set(layer_kind_name(kind), Json::number(p.efficiency[kind]));
    }
  }
  j.set("efficiency", std::move(eff));
  return j;
}

LayerKind kind_from_name(const std::string& name) {
  for (std::size_t k = 0; k < kLayerKindCount; ++k) {
    const auto kind = static_cast<LayerKind>(k);
    if (name == layer_kind_name(kind)) return kind;
  }
  SCALPEL_REQUIRE(false, "unknown layer kind name: " + name);
}

ComputeProfile profile_from_json(const Json& j) {
  ComputeProfile p;
  p.name = j.at("name").as_string();
  p.peak_flops = j.at("peak_flops").as_number();
  p.mem_bw = j.at("mem_bw").as_number();
  p.layer_overhead = j.at("layer_overhead").as_number();
  const Json& eff = j.at("efficiency");
  for (const auto& key : eff.keys()) {
    p.efficiency[kind_from_name(key)] = eff.at(key).as_number();
  }
  return p;
}

Json energy_to_json(const EnergyProfile& e) {
  Json j = Json::object();
  j.set("name", Json::string(e.name));
  j.set("p_active", Json::number(e.p_active));
  j.set("p_tx", Json::number(e.p_tx));
  j.set("p_idle", Json::number(e.p_idle));
  return j;
}

EnergyProfile energy_from_json(const Json& j) {
  EnergyProfile e;
  e.name = j.at("name").as_string();
  e.p_active = j.at("p_active").as_number();
  e.p_tx = j.at("p_tx").as_number();
  e.p_idle = j.at("p_idle").as_number();
  return e;
}

}  // namespace

Json to_json(const SurgeryPlan& plan) {
  Json j = Json::object();
  j.set("device_only", Json::boolean(plan.device_only));
  j.set("partition_after", Json::number(plan.partition_after));
  j.set("quantize_upload", Json::boolean(plan.quantize_upload));
  Json exits = Json::array();
  for (const auto& e : plan.policy.exits) {
    Json ej = Json::object();
    ej.set("candidate", Json::number(static_cast<double>(e.candidate)));
    ej.set("theta", Json::number(e.theta));
    exits.push_back(std::move(ej));
  }
  j.set("exits", std::move(exits));
  return j;
}

SurgeryPlan plan_from_json(const Json& j) {
  SurgeryPlan plan;
  plan.device_only = j.at("device_only").as_bool();
  plan.partition_after = static_cast<NodeId>(j.at("partition_after").as_int());
  if (j.contains("quantize_upload")) {
    plan.quantize_upload = j.at("quantize_upload").as_bool();
  }
  const Json& exits = j.at("exits");
  for (std::size_t i = 0; i < exits.size(); ++i) {
    ExitChoice e;
    e.candidate = static_cast<std::size_t>(exits.at(i).at("candidate").as_int());
    e.theta = exits.at(i).at("theta").as_number();
    plan.policy.exits.push_back(e);
  }
  return plan;
}

Json to_json(const DeviceDecision& d) {
  Json j = Json::object();
  j.set("plan", to_json(d.plan));
  j.set("server", Json::number(d.server));
  j.set("compute_share", Json::number(d.compute_share));
  j.set("bandwidth", Json::number(d.bandwidth));
  return j;
}

DeviceDecision device_decision_from_json(const Json& j) {
  DeviceDecision d;
  d.plan = plan_from_json(j.at("plan"));
  d.server = static_cast<ServerId>(j.at("server").as_int());
  d.compute_share = j.at("compute_share").as_number();
  d.bandwidth = j.at("bandwidth").as_number();
  return d;
}

Json to_json(const Decision& d) {
  Json j = Json::object();
  j.set("scheme", Json::string(d.scheme));
  Json devices = Json::array();
  for (const auto& dd : d.per_device) devices.push_back(to_json(dd));
  j.set("per_device", std::move(devices));
  Json preds = Json::array();
  for (const auto& p : d.predicted) {
    Json pj = Json::object();
    pj.set("expected_latency",
           Json::number(std::isfinite(p.expected_latency)
                            ? p.expected_latency
                            : -1.0));
    pj.set("expected_accuracy", Json::number(p.expected_accuracy));
    pj.set("offload_prob", Json::number(p.offload_prob));
    pj.set("stable", Json::boolean(p.stable));
    preds.push_back(std::move(pj));
  }
  j.set("predicted", std::move(preds));
  return j;
}

Decision decision_from_json(const Json& j) {
  Decision d;
  d.scheme = j.at("scheme").as_string();
  const Json& devices = j.at("per_device");
  for (std::size_t i = 0; i < devices.size(); ++i) {
    d.per_device.push_back(device_decision_from_json(devices.at(i)));
  }
  // Predictions are re-derivable; evaluate_decision repopulates them.
  return d;
}

Json to_json(const ClusterTopology& topo) {
  Json j = Json::object();
  Json cells = Json::array();
  for (const auto& c : topo.cells()) {
    Json cj = Json::object();
    cj.set("name", Json::string(c.name));
    cj.set("bandwidth", Json::number(c.bandwidth));
    cj.set("rtt", Json::number(c.rtt));
    cells.push_back(std::move(cj));
  }
  j.set("cells", std::move(cells));

  Json devices = Json::array();
  for (const auto& d : topo.devices()) {
    Json dj = Json::object();
    dj.set("name", Json::string(d.name));
    dj.set("compute", profile_to_json(d.compute));
    dj.set("energy", energy_to_json(d.energy));
    dj.set("cell", Json::number(d.cell));
    dj.set("model", Json::string(d.model));
    dj.set("arrival_rate", Json::number(d.arrival_rate));
    dj.set("deadline", Json::number(d.deadline));
    dj.set("min_accuracy", Json::number(d.min_accuracy));
    dj.set("difficulty_a", Json::number(d.difficulty.a()));
    dj.set("difficulty_b", Json::number(d.difficulty.b()));
    devices.push_back(std::move(dj));
  }
  j.set("devices", std::move(devices));

  Json servers = Json::array();
  for (const auto& s : topo.servers()) {
    Json sj = Json::object();
    sj.set("name", Json::string(s.name));
    sj.set("compute", profile_to_json(s.compute));
    sj.set("backhaul_rtt", Json::number(s.backhaul_rtt));
    servers.push_back(std::move(sj));
  }
  j.set("servers", std::move(servers));
  return j;
}

ClusterTopology topology_from_json(const Json& j) {
  ClusterTopology topo;
  const Json& cells = j.at("cells");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    Cell c;
    c.name = cells.at(i).at("name").as_string();
    c.bandwidth = cells.at(i).at("bandwidth").as_number();
    c.rtt = cells.at(i).at("rtt").as_number();
    topo.add_cell(std::move(c));
  }
  const Json& devices = j.at("devices");
  for (std::size_t i = 0; i < devices.size(); ++i) {
    const Json& dj = devices.at(i);
    Device d;
    d.name = dj.at("name").as_string();
    d.compute = profile_from_json(dj.at("compute"));
    d.energy = energy_from_json(dj.at("energy"));
    d.cell = static_cast<CellId>(dj.at("cell").as_int());
    d.model = dj.at("model").as_string();
    d.arrival_rate = dj.at("arrival_rate").as_number();
    d.deadline = dj.at("deadline").as_number();
    d.min_accuracy = dj.at("min_accuracy").as_number();
    if (dj.contains("difficulty_a")) {
      d.difficulty = DifficultyModel(dj.at("difficulty_a").as_number(),
                                     dj.at("difficulty_b").as_number());
    }
    topo.add_device(std::move(d));
  }
  const Json& servers = j.at("servers");
  for (std::size_t i = 0; i < servers.size(); ++i) {
    const Json& sj = servers.at(i);
    EdgeServer s;
    s.name = sj.at("name").as_string();
    s.compute = profile_from_json(sj.at("compute"));
    s.backhaul_rtt = sj.at("backhaul_rtt").as_number();
    topo.add_server(std::move(s));
  }
  topo.validate();
  return topo;
}

}  // namespace scalpel::serialize
