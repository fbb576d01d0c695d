#pragma once

#include <string>

namespace scalpel {
class Json;
class Table;
struct SimMetrics;
struct ReplicatedMetrics;

/// Machine-readable views of simulation results, so benches and the CLI can
/// hand full metrics (including the shed/expired/failover counters the
/// console one-liner omits) to downstream tooling.

/// Full SimMetrics as a JSON object: scalars, conservation counters, latency
/// quantiles, per-device breakdown and utilization.
Json sim_metrics_to_json(const SimMetrics& m);

/// Flat (metric, value) rows of the aggregate scalars (per-device data
/// excluded) for CSV export.
Table sim_metrics_to_table(const SimMetrics& m);

/// Replicated aggregate: per-metric mean ± 95% CI summaries plus the
/// per-replication SimMetrics array.
Json replicated_metrics_to_json(const ReplicatedMetrics& agg);

/// Writes metrics to `path`; a ".csv" suffix selects the tabular form,
/// anything else gets pretty JSON. Returns false (and logs) on I/O failure.
bool write_sim_metrics(const SimMetrics& m, const std::string& path);

/// Writes a replicated aggregate to `path` by the same suffix rule. The CSV
/// form is one row of headline scalars per replication; the full nested
/// detail needs the JSON form.
bool write_replicated_metrics(const ReplicatedMetrics& agg,
                              const std::string& path);

}  // namespace scalpel
