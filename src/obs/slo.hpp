#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace scalpel {
class DecisionAuditLog;
class Json;
class TimeSeriesRecorder;

/// One burn-rate evaluation window. The burn rate is the fraction of the
/// error budget consumed per unit budget: with objective 0.9, a window where
/// 20% of tasks missed their deadline burns at (0.20 / 0.10) = 2.0x. A
/// threshold of 1.0 means "alert when the budget is being spent exactly as
/// fast as it accrues"; production policies typically pair a short window at
/// a high threshold (fast detection) with a long window at a lower one
/// (sustained-burn confirmation), alerting only when BOTH fire.
struct SloWindow {
  double seconds = 10.0;
  double burn_threshold = 1.0;
};

/// Declarative SLO over two cumulative counter columns of a
/// TimeSeriesRecorder: good/total >= objective, e.g. deadline-met over
/// deadline-total >= 0.9.
struct SloSpec {
  std::string name;        // e.g. "deadline"
  std::string good;        // cumulative counter column, e.g. sim.deadline_met
  std::string total;       // cumulative counter column, e.g. sim.deadline_total
  double objective = 0.9;  // must be < 1 (a zero error budget cannot burn)
  std::vector<SloWindow> windows;
};

/// Multi-window burn-rate alerting evaluated over a TimeSeriesRecorder.
/// evaluate() is called by the engine right after every recorder sample; it
/// recomputes each spec's per-window burn rates from delta_from() and
/// flips the spec's alert state when ALL windows sit at or above their
/// thresholds (and back when any window recedes). Transitions append
/// kSloBurnStart / kSloBurnStop records to the attached DecisionAuditLog, so
/// a burn shows up in the same flight recorder as the controller decisions
/// that caused — or should have cured — it. Deterministic: state depends
/// only on recorder contents, so alert streams are bit-identical wherever
/// the series are.
class SloMonitor {
 public:
  /// `audit` may be null (alert states still tracked, nothing logged).
  explicit SloMonitor(const TimeSeriesRecorder* recorder,
                      DecisionAuditLog* audit = nullptr)
      : recorder_(recorder), audit_(audit) {}

  /// Registers a spec; REQUIREs objective < 1 and at least one window.
  /// Column names are resolved lazily at the first evaluate() (the recorder
  /// freezes its column set at its first sample).
  void add(SloSpec spec);

  /// Recomputes burn rates and alert states from the recorder's current
  /// contents. No-op until the recorder has at least one sample.
  void evaluate();

  std::size_t specs() const { return states_.size(); }
  const SloSpec& spec(std::size_t i) const { return states_.at(i).spec; }
  bool alerting(std::size_t i) const { return states_.at(i).alerting; }
  /// Burn rate of spec i's window w as of the last evaluate().
  double burn_rate(std::size_t i, std::size_t w) const {
    return states_.at(i).burns.at(w);
  }
  std::uint64_t alerts_started() const { return alerts_started_; }
  std::uint64_t alerts_stopped() const { return alerts_stopped_; }

  /// Per-spec {name, objective, alerting, windows: [{seconds, threshold,
  /// burn}], starts, stops} for reports.
  Json to_json() const;

 private:
  struct State {
    SloSpec spec;
    std::size_t good_col = 0;
    std::size_t total_col = 0;
    bool resolved = false;
    bool alerting = false;
    std::vector<double> burns;  // one per window, last evaluate()
    // Per-window baseline cursors (absolute sample ordinals) so the
    // per-sample window lookup is an O(1) forward step, not a search.
    std::vector<std::uint64_t> cursors;
  };

  const TimeSeriesRecorder* recorder_;
  DecisionAuditLog* audit_;
  std::vector<State> states_;
  std::uint64_t alerts_started_ = 0;
  std::uint64_t alerts_stopped_ = 0;
};

}  // namespace scalpel
