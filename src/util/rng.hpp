#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace scalpel {

/// Deterministic, cross-platform PRNG (xoshiro256**). We deliberately avoid
/// std::mt19937 + std::*_distribution because distribution outputs are
/// implementation-defined; every simulation in this repo must reproduce
/// bit-identically across toolchains.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Uniform 64-bit word.
  std::uint64_t next_u64();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Exponential with rate lambda (mean 1/lambda). Requires lambda > 0.
  double exponential(double lambda);

  /// Standard normal via Box-Muller (deterministic, no cached spare).
  double normal(double mean = 0.0, double stddev = 1.0);

  /// Log-normal such that the *result* has the given mean and coefficient of
  /// variation. Handy for heterogeneity knobs ("server speeds with CoV 0.4").
  double lognormal_mean_cov(double mean, double cov);

  /// Sample an index according to non-negative weights (at least one > 0).
  std::size_t categorical(const std::vector<double>& weights);

  /// Derive an independent child stream (for per-entity randomness).
  /// Consumes one draw from this stream, so the result depends on how many
  /// values were drawn before the call. For scheduling-independent streams
  /// use substream() instead.
  Rng split();

  /// Derive the seed of substream `stream_id` from a base seed. Pure
  /// SplitMix64-based function of (seed, stream_id): the result never
  /// depends on draw history, thread scheduling, or how many other
  /// substreams were derived — the contract the replicated-simulation
  /// runner's bit-identical aggregation rests on. Golden values are pinned
  /// in tests/util/rng_test.cpp; do not change without updating them.
  static std::uint64_t substream_seed(std::uint64_t seed,
                                      std::uint64_t stream_id);

  /// Independent stream `stream_id` derived from this generator's
  /// *construction seed* (not its current state): r.substream(k) is the same
  /// generator no matter how much r has been used.
  Rng substream(std::uint64_t stream_id) const;

  /// The seed this generator was constructed with (substream derivation key).
  std::uint64_t seed() const { return seed_; }

 private:
  std::uint64_t seed_ = 0;
  std::array<std::uint64_t, 4> state_{};
};

}  // namespace scalpel
