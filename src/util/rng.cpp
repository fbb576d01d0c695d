#include "util/rng.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace scalpel {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) : seed_(seed) {
  // Seed the full 256-bit state from splitmix64, per the xoshiro authors'
  // recommendation; guards against the all-zero state.
  std::uint64_t s = seed;
  for (auto& w : state_) w = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0,1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) {
  SCALPEL_REQUIRE(lo <= hi, "uniform(lo, hi) needs lo <= hi");
  return lo + (hi - lo) * uniform();
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  SCALPEL_REQUIRE(lo <= hi, "uniform_int(lo, hi) needs lo <= hi");
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next_u64());
  }
  // Rejection sampling for exact uniformity.
  const std::uint64_t limit = UINT64_MAX - UINT64_MAX % span;
  std::uint64_t r = next_u64();
  while (r >= limit) r = next_u64();
  return lo + static_cast<std::int64_t>(r % span);
}

double Rng::exponential(double lambda) {
  SCALPEL_REQUIRE(lambda > 0.0, "exponential rate must be positive");
  // Inversion; 1-u in (0,1] avoids log(0).
  return -std::log(1.0 - uniform()) / lambda;
}

double Rng::normal(double mean, double stddev) {
  // Box-Muller without caching the second variate: determinism beats the
  // factor-of-two cost at the call volumes we see.
  const double u1 = 1.0 - uniform();
  const double u2 = uniform();
  const double z = std::sqrt(-2.0 * std::log(u1)) *
                   std::cos(2.0 * 3.141592653589793238462643383279502884 * u2);
  return mean + stddev * z;
}

double Rng::lognormal_mean_cov(double mean, double cov) {
  SCALPEL_REQUIRE(mean > 0.0, "lognormal mean must be positive");
  SCALPEL_REQUIRE(cov >= 0.0, "lognormal CoV must be non-negative");
  if (cov == 0.0) return mean;
  const double sigma2 = std::log(1.0 + cov * cov);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return std::exp(normal(mu, std::sqrt(sigma2)));
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  SCALPEL_REQUIRE(!weights.empty(), "categorical needs at least one weight");
  double total = 0.0;
  for (double w : weights) {
    SCALPEL_REQUIRE(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  SCALPEL_REQUIRE(total > 0.0, "categorical needs a positive total weight");
  double r = uniform() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::split() { return Rng(next_u64()); }

std::uint64_t Rng::substream_seed(std::uint64_t seed,
                                  std::uint64_t stream_id) {
  // Domain-separate from the root stream (substream 0 must not replay the
  // parent), fold in the stream id at golden-ratio stride, then run two
  // SplitMix64 finalizations so adjacent ids avalanche into unrelated seeds.
  std::uint64_t s = (seed ^ 0x8e9c5c2f3a1db4d7ULL) +
                    stream_id * 0x9e3779b97f4a7c15ULL;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  return a ^ rotl(b, 23);
}

Rng Rng::substream(std::uint64_t stream_id) const {
  return Rng(substream_seed(seed_, stream_id));
}

}  // namespace scalpel
