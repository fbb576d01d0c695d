#include "spans.hpp"

#include "perf/alloc_hook.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled, std::uint64_t pipeline)
    : enabled_(enabled), pipeline_(pipeline), origin_(Clock::now()) {
  if (enabled_) spans_.reserve(1024);
}

int SpanRecorder::open(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.pipeline = pipeline_;
  const auto index = static_cast<int>(spans_.size());
  spans_.push_back(std::move(s));
  open_.push_back(index);
  open_allocs_.push_back(scalpel::perf::alloc_count());
  // Stamp the start last so the bookkeeping above is not billed to the span.
  spans_[static_cast<std::size_t>(index)].start =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  return index;
}

void SpanRecorder::close(int index) {
  if (index < 0) return;
  const double now =
      std::chrono::duration<double>(Clock::now() - origin_).count();
  Span& s = spans_[static_cast<std::size_t>(index)];
  s.end = now;
  s.allocs = scalpel::perf::alloc_count() - open_allocs_.back();
  open_.pop_back();
  open_allocs_.pop_back();
}

std::map<std::string, LayerTotals> SpanRecorder::totals() const {
  std::vector<double> child_s(spans_.size(), 0.0);
  std::vector<std::uint64_t> child_allocs(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    child_s[p] += s.end - s.start;
    child_allocs[p] += s.allocs;
  }
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTotals& t = out[s.name];
    t.total_s += s.end - s.start;
    t.self_s += s.end - s.start - child_s[i];
    t.self_allocs += s.allocs - child_allocs[i];
  }
  return out;
}

double SpanRecorder::top_level_seconds() const {
  double sum = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0) sum += s.end - s.start;
  }
  return sum;
}

scalpel::Json SpanRecorder::to_json() const {
  using scalpel::Json;
  Json arr = Json::array();
  for (const Span& s : spans_) {
    Json j = Json::object();
    j.set("name", Json::string(s.name));
    j.set("start", Json::number(s.start));
    j.set("end", Json::number(s.end));
    j.set("parent", Json::number(s.parent));
    j.set("pipeline", Json::number(static_cast<double>(s.pipeline)));
    j.set("allocs", Json::number(static_cast<double>(s.allocs)));
    arr.push_back(std::move(j));
  }
  return arr;
}

}  // namespace perfbench
