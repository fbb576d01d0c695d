#include "core/telemetry.hpp"

#include <algorithm>
#include <cstdio>

#include "util/assert.hpp"

namespace scalpel {

namespace {

/// After this many *consecutive* outlier rejections the sanitizer
/// capitulates: the world really changed, accept the reading and restart
/// the reference window.
constexpr std::size_t kDistrustLimit = 3;
/// Liveness transitions count toward flap_threshold while they lie within
/// this many most recent observations of the server.
constexpr std::size_t kFlapWindow = 10;

}  // namespace

std::string SanitizeReport::summary() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "stale=%zu outlier=%zu deferred=%zu flap=%zu",
                stale_held, outliers_rejected, flips_deferred,
                flaps_suppressed);
  return buf;
}

TelemetrySanitizer::TelemetrySanitizer(SanitizerOptions opts,
                                       std::size_t num_cells,
                                       std::size_t num_servers)
    : opts_(opts) {
  SCALPEL_REQUIRE(opts_.max_age > 0.0, "sanitizer max_age must be positive");
  SCALPEL_REQUIRE(opts_.outlier_band >= 0.0,
                  "sanitizer outlier band must be non-negative");
  SCALPEL_REQUIRE(opts_.median_window >= 1,
                  "sanitizer median window must be at least 1");
  SCALPEL_REQUIRE(opts_.confirm_windows >= 1,
                  "sanitizer confirm_windows must be at least 1");
  cells_.resize(num_cells);
  servers_.resize(num_servers);
  // Everything starts up, matching the controller and the simulator.
  believed_alive_.assign(num_servers, true);
}

bool TelemetrySanitizer::detector_ready(const CellState& st) const {
  if (opts_.outlier_band <= 0.0) return false;
  return st.window.size() >= opts_.median_window;
}

double TelemetrySanitizer::reference(const CellState& st) const {
  std::vector<double> sorted(st.window.begin(), st.window.end());
  auto mid = sorted.begin() + static_cast<std::ptrdiff_t>(sorted.size() / 2);
  std::nth_element(sorted.begin(), mid, sorted.end());
  return *mid;
}

SanitizeReport TelemetrySanitizer::apply(Observation& o) {
  SCALPEL_REQUIRE(o.cell_bandwidth.size() == cells_.size(),
                  "sanitizer observation must cover every cell");
  SCALPEL_REQUIRE(o.server_alive.size() == servers_.size(),
                  "sanitizer observation must cover every server");
  SanitizeReport report;

  // Freshness/age metadata is only attached when a telemetry channel sits
  // between the cluster and the controller. Without it the observation IS
  // the ground truth — second-guessing it (outlier holds, debounce) would
  // only delay reaction to real events, so the trust policy stands down.
  const bool bw_measured = !o.bw_fresh.empty() || !o.bw_age.empty();
  const bool alive_measured = !o.alive_fresh.empty();

  for (std::size_t c = 0; c < cells_.size(); ++c) {
    CellState& st = cells_[c];
    const bool fresh = o.bw_fresh.empty() || o.bw_fresh[c];
    const double age = o.bw_age.empty() ? 0.0 : o.bw_age[c];
    const double v = o.cell_bandwidth[c];
    if (!bw_measured) {
      st.distrust = 0;
      st.last_good = v;
      st.has_good = true;
      continue;
    }
    if (age > opts_.max_age) {
      // Too old to act on. Hold the last value this filter accepted; a
      // channel repeating a weeks-old reading must not masquerade as news.
      if (st.has_good && st.last_good != v) {
        o.cell_bandwidth[c] = st.last_good;
        ++report.stale_held;
      }
      continue;
    }
    if (!fresh) {
      // A dropped report repeats the previous delivery — within the trust
      // window that is already the believed value; nothing to learn.
      continue;
    }
    if (detector_ready(st)) {
      const double ref = reference(st);
      if (ref > 0.0 && std::abs(v - ref) > opts_.outlier_band * ref) {
        ++st.distrust;
        if (st.distrust <= kDistrustLimit) {
          o.cell_bandwidth[c] = st.has_good ? st.last_good : ref;
          ++report.outliers_rejected;
          continue;
        }
        // Capitulate: kDistrustLimit consecutive "outliers" is a level
        // shift, not noise. Accept and rebuild the reference from scratch.
        st.window.clear();
      }
    }
    st.distrust = 0;
    st.last_good = v;
    st.has_good = true;
    st.window.push_back(v);
    while (st.window.size() > opts_.median_window) st.window.pop_front();
  }

  for (std::size_t s = 0; s < servers_.size(); ++s) {
    ServerState& st = servers_[s];
    const bool fresh = o.alive_fresh.empty() || o.alive_fresh[s];
    const bool raw = o.server_alive[s];
    if (!alive_measured) {
      believed_alive_[s] = raw;
      st.flip_streak = 0;
      continue;
    }
    if (!fresh) {
      // Dropped liveness report: keep believing what we believed.
      o.server_alive[s] = believed_alive_[s];
      continue;
    }
    ++st.observations;
    if (st.frozen) {
      // Unfreeze on *self-consistent* readings, whichever state they claim,
      // and adopt that state. Demanding agreement with the frozen belief
      // would deadlock a server frozen "up" through a real outage: the
      // truthful "down" stream never matches the belief, and the plan keeps
      // routing into the hole.
      if (st.stable > 0 && raw == st.last_raw) {
        ++st.stable;
      } else {
        st.last_raw = raw;
        st.stable = 1;
      }
      if (st.stable >= opts_.flap_hold) {
        st.frozen = false;
        st.stable = 0;
        st.flip_streak = 0;
        st.transitions.clear();
        believed_alive_[s] = raw;
      } else if (raw != believed_alive_[s]) {
        ++report.flaps_suppressed;
      }
      o.server_alive[s] = believed_alive_[s];
      continue;
    }
    if (raw != believed_alive_[s]) {
      if (++st.flip_streak >= opts_.confirm_windows) {
        st.flip_streak = 0;
        if (opts_.flap_threshold > 0) {
          st.transitions.push_back(st.observations);
          while (!st.transitions.empty() &&
                 st.transitions.front() + kFlapWindow <= st.observations) {
            st.transitions.pop_front();
          }
          if (st.transitions.size() >= opts_.flap_threshold) {
            // Blinking server: freeze the believed state rather than
            // thrashing the plan once per blink.
            st.frozen = true;
            st.stable = 0;
            ++report.flaps_suppressed;
            o.server_alive[s] = believed_alive_[s];
            continue;
          }
        }
        believed_alive_[s] = raw;
      } else {
        ++report.flips_deferred;
      }
    } else {
      st.flip_streak = 0;
    }
    o.server_alive[s] = believed_alive_[s];
  }
  return report;
}

}  // namespace scalpel
