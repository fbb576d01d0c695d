#include "obs/timeseries.hpp"

#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/table.hpp"

namespace scalpel {

namespace {

/// Built-in engine columns, laid out before any registered source. "time"
/// is always column 0 so exports and window lookups have a fixed anchor.
const char* const kEngineColumns[] = {
    "time",           "sim.arrived",    "sim.completed",
    "sim.failed",     "sim.shed",       "sim.expired",
    "sim.deadline_met", "sim.deadline_total", "sim.in_flight",
    "sim.queue_depth",
};
constexpr std::size_t kNumEngineColumns =
    sizeof(kEngineColumns) / sizeof(kEngineColumns[0]);
// time is neither; arrived..deadline_total are cumulative counters;
// in_flight and queue_depth are gauges.
constexpr std::size_t kFirstCumulative = 1;
constexpr std::size_t kLastCumulative = 7;  // sim.deadline_total

}  // namespace

void TimeSeriesRecorder::register_gauge(std::string name,
                                        std::function<double()> fn) {
  SCALPEL_REQUIRE(columns_.empty(),
                  "TimeSeriesRecorder: register before the first sample");
  sources_.push_back({std::move(name), std::move(fn), false});
}

void TimeSeriesRecorder::register_counter(std::string name,
                                          std::function<double()> fn) {
  SCALPEL_REQUIRE(columns_.empty(),
                  "TimeSeriesRecorder: register before the first sample");
  sources_.push_back({std::move(name), std::move(fn), true});
}

void TimeSeriesRecorder::freeze_columns() {
  columns_.clear();
  cumulative_.clear();
  columns_.reserve(kNumEngineColumns + sources_.size());
  for (std::size_t i = 0; i < kNumEngineColumns; ++i) {
    columns_.emplace_back(kEngineColumns[i]);
    cumulative_.push_back(i >= kFirstCumulative && i <= kLastCumulative);
  }
  for (const auto& src : sources_) {
    columns_.push_back(src.name);
    cumulative_.push_back(src.is_counter);
  }
  data_.assign(capacity_ * columns_.size(), 0.0);
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

void TimeSeriesRecorder::sample(const EngineSample& s) {
  if (capacity_ == 0) return;
  if (columns_.empty()) freeze_columns();
  double* row = &data_[head_ * columns_.size()];
  row[0] = s.time;
  row[1] = static_cast<double>(s.arrived);
  row[2] = static_cast<double>(s.completed);
  row[3] = static_cast<double>(s.failed);
  row[4] = static_cast<double>(s.shed);
  row[5] = static_cast<double>(s.expired);
  row[6] = static_cast<double>(s.deadline_met);
  row[7] = static_cast<double>(s.deadline_total);
  row[8] = s.in_flight;
  row[9] = s.queue_depth;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    row[kNumEngineColumns + i] = sources_[i].fn();
  }
  head_ = head_ + 1 == capacity_ ? 0 : head_ + 1;
  if (size_ < capacity_) {
    ++size_;
  } else {
    ++dropped_;
  }
}

std::size_t TimeSeriesRecorder::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i] == name) return i;
  }
  SCALPEL_REQUIRE(false, "TimeSeriesRecorder: unknown column " + name);
  return 0;
}

const double* TimeSeriesRecorder::row_ptr(std::size_t row) const {
  SCALPEL_REQUIRE(row < size_, "TimeSeriesRecorder: row out of range");
  const std::size_t start = size_ < capacity_ ? 0 : head_;
  return &data_[((start + row) % capacity_) * columns_.size()];
}

double TimeSeriesRecorder::value(std::size_t row, std::size_t col) const {
  SCALPEL_REQUIRE(col < columns_.size(),
                  "TimeSeriesRecorder: column out of range");
  return row_ptr(row)[col];
}

double TimeSeriesRecorder::last_time() const {
  if (size_ == 0) return 0.0;
  return row_ptr(size_ - 1)[0];
}

double TimeSeriesRecorder::delta_from(std::size_t base_row,
                                      std::size_t col) const {
  if (size_ == 0) return 0.0;
  SCALPEL_REQUIRE(col < columns_.size(),
                  "TimeSeriesRecorder: column out of range");
  const double base = base_row == kNoBaseRow ? 0.0 : row_ptr(base_row)[col];
  return row_ptr(size_ - 1)[col] - base;
}

std::size_t TimeSeriesRecorder::window_base_row_from(std::uint64_t* cursor,
                                                     double window) const {
  if (size_ == 0) return kNoBaseRow;
  const std::size_t ncols = columns_.size();
  const std::size_t start = size_ < capacity_ ? 0 : head_;
  const std::uint64_t oldest = dropped_;  // absolute ordinal of row 0
  const std::uint64_t newest = oldest + size_ - 1;
  const auto time_at = [&](std::uint64_t abs) {
    std::size_t idx = start + static_cast<std::size_t>(abs - oldest);
    if (idx >= capacity_) idx -= capacity_;
    return data_[idx * ncols];
  };
  const double cutoff = time_at(newest) - window;
  std::uint64_t a = *cursor;
  if (a < oldest) a = oldest;  // baseline candidate was evicted
  if (a > newest) a = newest;
  while (a < newest && time_at(a + 1) <= cutoff) ++a;
  *cursor = a;
  if (time_at(a) > cutoff) return kNoBaseRow;
  return static_cast<std::size_t>(a - oldest);
}

void TimeSeriesRecorder::clear() {
  columns_.clear();
  cumulative_.clear();
  data_.clear();
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
}

Json TimeSeriesRecorder::to_json() const {
  Json doc = Json::object();
  Json cols = Json::array();
  for (const auto& name : columns_) cols.push_back(Json::string(name));
  doc.set("columns", std::move(cols));
  Json rows = Json::array();
  for (std::size_t r = 0; r < size_; ++r) {
    const double* row = row_ptr(r);
    Json jr = Json::array();
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      jr.push_back(Json::number(row[c]));
    }
    rows.push_back(std::move(jr));
  }
  doc.set("rows", std::move(rows));
  doc.set("dropped", Json::number(static_cast<double>(dropped_)));
  return doc;
}

Table TimeSeriesRecorder::to_table() const {
  Table t(columns_);
  for (std::size_t r = 0; r < size_; ++r) {
    const double* row = row_ptr(r);
    std::vector<std::string> cells;
    cells.reserve(columns_.size());
    for (std::size_t c = 0; c < columns_.size(); ++c) {
      cells.push_back(Table::num(row[c], 6));
    }
    t.add_row(cells);
  }
  return t;
}

bool TimeSeriesRecorder::write(const std::string& path) const {
  if (path.ends_with(".csv")) return write_csv(to_table(), path);
  return write_json_file(path, [&](JsonWriter& w) { w.value(to_json()); });
}

}  // namespace scalpel
