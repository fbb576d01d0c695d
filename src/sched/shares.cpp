#include "sched/shares.hpp"

#include <cmath>

#include "util/assert.hpp"

namespace scalpel::shares {

std::vector<double> sqrt_rule(const std::vector<double>& demands,
                              double capacity) {
  SCALPEL_REQUIRE(!demands.empty(), "share allocation needs demands");
  SCALPEL_REQUIRE(capacity > 0.0, "capacity must be positive");
  bool any = false;
  for (double w : demands) {
    SCALPEL_REQUIRE(w >= 0.0, "demands must be non-negative");
    any = any || w > 0.0;
  }
  SCALPEL_REQUIRE(any, "at least one demand must be positive");
  double total = 0.0;
  for (double w : demands) total += std::sqrt(w);
  std::vector<double> out(demands.size(), 0.0);
  for (std::size_t i = 0; i < demands.size(); ++i) {
    out[i] = capacity * std::sqrt(demands[i]) / total;
  }
  return out;
}

}  // namespace scalpel::shares
