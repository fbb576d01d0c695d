#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace scalpel {
class Json;
class Table;

/// Engine-side signals captured at every sample instant. POD and declared
/// here (not in src/sim) so obs stays a leaf library: the engine fills one
/// of these from its own state and hands it over. Counters are cumulative
/// since run start; gauges are instantaneous. All values are exact integers
/// (stored as doubles), so summation order cannot perturb them — the basis
/// for bit-identical series across shard x thread configurations.
struct EngineSample {
  double time = 0.0;
  std::uint64_t arrived = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t expired = 0;
  std::uint64_t deadline_met = 0;    // counted completions within deadline
  std::uint64_t deadline_total = 0;  // counted terminals with a deadline
  double in_flight = 0.0;            // tasks alive at the sample instant
  double queue_depth = 0.0;          // tasks buffered across every device
};

/// Fixed-interval windowed snapshots of engine signals plus caller-registered
/// sources (per-cell slices and prices, controller rung, epochs minted, dead
/// letters, ...). Row-major storage in one ring preallocated at the first
/// sample, so steady-state sampling never allocates; once full the oldest
/// rows are overwritten (dropped() reports how many). The engine drives the
/// cadence from epoch barriers on an exact time grid, so a recorder holds
/// bit-identical rows for any shard and thread count.
class TimeSeriesRecorder {
 public:
  /// `capacity` is the maximum retained rows (ring, oldest evicted).
  explicit TimeSeriesRecorder(std::size_t capacity = 4096)
      : capacity_(capacity) {}

  /// Registers a caller-polled column, sampled after the built-in engine
  /// columns in registration order. Counter columns are expected to be
  /// cumulative and non-decreasing (delta_from() differences them);
  /// gauge columns are instantaneous. Must be called before the first
  /// sample() — the column set freezes when storage is laid out.
  void register_gauge(std::string name, std::function<double()> fn);
  void register_counter(std::string name, std::function<double()> fn);

  /// Records one row: the engine sample plus every registered source.
  void sample(const EngineSample& s);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t dropped() const { return dropped_; }
  std::size_t capacity() const { return capacity_; }
  /// Column names in storage order ("time" first, then the built-in engine
  /// columns, then registered sources).
  const std::vector<std::string>& columns() const { return columns_; }
  /// True for columns holding cumulative counts (delta_from applies).
  const std::vector<bool>& cumulative() const { return cumulative_; }
  std::size_t column_index(const std::string& name) const;  // REQUIREs found

  /// value(row, col) with row 0 = oldest retained sample.
  double value(std::size_t row, std::size_t col) const;
  double last_time() const;

  /// Baseline row for a trailing window: the newest retained row with
  /// time <= last_time() - window, or kNoBaseRow when the window reaches
  /// past the retained series (run-start baseline 0). Lets callers reading
  /// several columns over the same window find the row once and difference
  /// many. `cursor` is an absolute sample ordinal (survives ring eviction;
  /// start at 0) that only ever moves forward, so a periodic caller
  /// (SloMonitor evaluates on every sample) pays O(1) adjacent probes in
  /// steady state instead of a search whose scattered row reads miss cache
  /// on every call.
  static constexpr std::size_t kNoBaseRow = static_cast<std::size_t>(-1);
  std::size_t window_base_row_from(std::uint64_t* cursor,
                                   double window) const;
  /// last-row value of `col` minus its value at `base_row` (kNoBaseRow -> 0):
  /// the delta of a cumulative column across the window `base_row` opens.
  double delta_from(std::size_t base_row, std::size_t col) const;

  void clear();  // drops rows and the column layout; keeps sources

  /// {"columns": [...], "rows": [[...], ...], "dropped": n}.
  Json to_json() const;
  /// One row per sample, one column per series, for CSV export.
  Table to_table() const;
  /// Writes JSON (or CSV with a ".csv" suffix); false + log on I/O failure.
  bool write(const std::string& path) const;

 private:
  struct Source {
    std::string name;
    std::function<double()> fn;
    bool is_counter = false;
  };

  void freeze_columns();
  const double* row_ptr(std::size_t row) const;

  std::size_t capacity_;
  std::vector<Source> sources_;
  std::vector<std::string> columns_;
  std::vector<bool> cumulative_;
  std::vector<double> data_;  // ring of size_ rows x columns_.size()
  std::size_t head_ = 0;      // next write row
  std::size_t size_ = 0;
  std::uint64_t dropped_ = 0;
};

}  // namespace scalpel
