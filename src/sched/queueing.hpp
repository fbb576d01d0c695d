#pragma once

#include <vector>

namespace scalpel {

/// Single-queue sojourn formulas and capacity splits used to make the static
/// optimizer queueing-aware: the paper's resource allocation must keep each
/// server stable under its admitted arrival rates, and expected sojourn (not
/// bare service time) is what a latency SLO sees. The objective
/// (core/objective.hpp) is M/G/1 at the device, M/D/1 on the upload and
/// M/G/1 at the server; M/M/1 is only sched/offloading's assignment score.
namespace queueing {

/// Mean sojourn time (wait + service) of an M/M/1 queue; +inf if unstable
/// (lambda >= mu). lambda, mu in tasks/s.
double mm1_sojourn(double lambda, double mu);

/// Pollaczek-Khinchine mean sojourn of an M/G/1 queue with service moments
/// E[S] = m1, E[S^2] = m2; +inf if unstable (lambda * m1 >= 1).
double mg1_sojourn(double lambda, double m1, double m2);

/// M/D/1 mean sojourn (deterministic service s) — the upload stage, where
/// every task of a device ships the same activation payload.
double md1_sojourn(double lambda, double s);

/// Kleinrock capacity assignment: split a resource's capacity F across
/// classes with arrival rate lambda_i (tasks/s) and work w_i per task to
/// minimize the rate-weighted mean sojourn
///   sum_i lambda_i * 1 / (c_i / w_i - lambda_i).
/// F and w_i share one unit of work, F counting it per second. The joint
/// optimizer's uplink split passes bytes per task and the cell's bytes/s;
/// sched/offloading passes full-speed server seconds per task on a
/// unit-capacity server.
/// Returns per-class capacities c_i summing to F, or an empty vector if the
/// load is infeasible (sum lambda_i * w_i >= F). Classes with zero rate get
/// zero capacity.
std::vector<double> kleinrock(const std::vector<double>& lambda,
                              const std::vector<double>& work, double capacity);

}  // namespace queueing
}  // namespace scalpel
