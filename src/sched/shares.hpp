#pragma once

#include <vector>

namespace scalpel {

/// Divisible-resource share allocators. Both bandwidth (within a cell) and
/// compute (within a server) reduce to: split capacity C across classes with
/// demands w_i to minimize the rate-weighted sum of w_i / c_i. The optimum is
/// the square-root rule c_i ∝ sqrt(w_i) (Cauchy-Schwarz; verified against
/// grid search in tests).
namespace shares {

/// c_i = C * sqrt(w_i) / sum(sqrt(w)). Zero-demand classes get zero.
/// Requires at least one positive demand.
std::vector<double> sqrt_rule(const std::vector<double>& demands,
                              double capacity);

}  // namespace shares
}  // namespace scalpel
