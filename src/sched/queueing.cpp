#include "sched/queueing.hpp"

#include <cmath>
#include <limits>

#include "util/assert.hpp"

namespace scalpel::queueing {
namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}

double mm1_sojourn(double lambda, double mu) {
  SCALPEL_REQUIRE(lambda >= 0.0 && mu > 0.0, "invalid M/M/1 rates");
  if (lambda >= mu) return kInf;
  return 1.0 / (mu - lambda);
}

double mg1_sojourn(double lambda, double m1, double m2) {
  SCALPEL_REQUIRE(lambda >= 0.0 && m1 >= 0.0 && m2 >= 0.0,
                  "invalid M/G/1 parameters");
  // Deterministic-service moments satisfy m2 == m1^2 exactly; floating-point
  // scaling (e.g. dividing by a tiny compute share) can push m2 a hair below
  // that. Clamp rather than reject — variance cannot be negative.
  m2 = std::max(m2, m1 * m1);
  if (m1 == 0.0) return 0.0;
  const double rho = lambda * m1;
  if (rho >= 1.0) return kInf;
  return m1 + lambda * m2 / (2.0 * (1.0 - rho));
}

double md1_sojourn(double lambda, double s) {
  return mg1_sojourn(lambda, s, s * s);
}

std::vector<double> kleinrock(const std::vector<double>& lambda,
                              const std::vector<double>& work,
                              double capacity) {
  SCALPEL_REQUIRE(lambda.size() == work.size(), "kleinrock arity mismatch");
  SCALPEL_REQUIRE(capacity > 0.0, "capacity must be positive");
  double base = 0.0;       // minimum capacity for stability
  double sqrt_sum = 0.0;
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    SCALPEL_REQUIRE(lambda[i] >= 0.0 && work[i] >= 0.0,
                    "rates and work must be non-negative");
    if (lambda[i] > 0.0) {
      SCALPEL_REQUIRE(work[i] > 0.0, "active class must have positive work");
      base += lambda[i] * work[i];
      sqrt_sum += std::sqrt(lambda[i] * work[i]);
    }
  }
  if (base >= capacity) return {};  // infeasible load
  const double spare = capacity - base;
  std::vector<double> out(lambda.size(), 0.0);
  for (std::size_t i = 0; i < lambda.size(); ++i) {
    if (lambda[i] > 0.0) {
      out[i] = lambda[i] * work[i] +
               spare * std::sqrt(lambda[i] * work[i]) / sqrt_sum;
    }
  }
  return out;
}

}  // namespace scalpel::queueing
