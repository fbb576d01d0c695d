#include "sim/simulator.hpp"

#include "sim/shard.hpp"
#include "util/rng.hpp"

namespace scalpel {
namespace {

// Substream tag for the telemetry channel's RNG, derived from the run seed
// with Rng::substream_seed — NOT drawn from the master stream, so attaching
// a channel never perturbs the device/admission streams.
constexpr std::uint64_t kTelemetryStreamTag = 0x54454c454d455452ull;  // "TELEMETR"

}  // namespace

std::unique_ptr<TelemetryChannel> make_telemetry_channel(
    const TelemetryChannelOptions& opts, const ClusterTopology& topo,
    std::uint64_t seed) {
  if (opts.pass_through()) return nullptr;
  std::vector<double> initial_bw;
  for (const auto& c : topo.cells()) initial_bw.push_back(c.bandwidth);
  return std::make_unique<TelemetryChannel>(
      opts, std::move(initial_bw), topo.servers().size(),
      Rng::substream_seed(seed, kTelemetryStreamTag));
}

Simulator::Simulator(const ProblemInstance& instance, Decision decision,
                     Options options)
    : engine_(std::make_unique<ShardedSimulator>(
          instance, std::move(decision), std::move(options),
          ShardOptions{/*shards=*/1, /*threads=*/1})) {}

Simulator::~Simulator() = default;

void Simulator::set_cell_trace(CellId cell, BandwidthTrace trace) {
  engine_->set_cell_trace(cell, std::move(trace));
}

void Simulator::set_controller(ObservingController controller) {
  engine_->set_controller(std::move(controller));
}

void Simulator::set_admission(std::vector<double> fraction) {
  engine_->set_admission(std::move(fraction));
}

SimMetrics Simulator::run() { return engine_->run(); }

const TaskTracer& Simulator::trace() const {
  return engine_->one_shard_tracer();
}

const MetricsRegistry& Simulator::registry() const {
  return engine_->registry();
}

}  // namespace scalpel
