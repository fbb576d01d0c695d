#include "sim/event_queue.hpp"

#include <algorithm>
#include <cmath>

#include "util/assert.hpp"

namespace scalpel {

void EventQueue::init(std::size_t nbuckets, double width) {
  buckets_.assign(nbuckets, {});
  min_day_.assign(nbuckets, kNoDay);
  mask_ = nbuckets - 1;
  width_ = width;
  inv_width_ = 1.0 / width;
  cur_day_ = 0;
  pops_since_resize_ = 0;
  first_pop_time_ = 0.0;
  last_pop_time_ = 0.0;
}

void EventQueue::push_raw(const SimEvent& ev) {
  SCALPEL_REQUIRE(ev.time >= 0.0 && std::isfinite(ev.time),
                  "event time must be finite and non-negative");
  const std::uint64_t day = day_of(ev.time);
  const std::size_t idx = day & mask_;
  buckets_[idx].push_back(ev);
  if (day < min_day_[idx]) min_day_[idx] = day;
  ++size_;
  // An event behind the scan pointer (possible only before the first pop or
  // at a rounding boundary) rewinds the pointer so it cannot be skipped.
  if (day < cur_day_) cur_day_ = day;
  if (size_ > 2 * buckets_.size()) rebucket(buckets_.size() * 2);
}

SimEvent EventQueue::take(std::size_t bucket, std::size_t slot) {
  auto& b = buckets_[bucket];
  SimEvent out = b[slot];
  b[slot] = b.back();
  b.pop_back();
  --size_;
  ++pops_since_resize_;
  if (pops_since_resize_ == 1) first_pop_time_ = out.time;
  last_pop_time_ = out.time;
  return out;
}

void EventQueue::find_global_min(std::size_t* bucket,
                                 std::size_t* slot) const {
  std::size_t bb = 0;
  std::size_t bs = 0;
  bool found = false;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const auto& b = buckets_[i];
    for (std::size_t j = 0; j < b.size(); ++j) {
      if (!found || sim_event_before(b[j], buckets_[bb][bs])) {
        bb = i;
        bs = j;
        found = true;
      }
    }
  }
  SCALPEL_REQUIRE(found, "find_global_min on empty calendar");
  *bucket = bb;
  *slot = bs;
}

SimEvent EventQueue::pop_min() {
  SCALPEL_REQUIRE(size_ > 0, "pop from empty event queue");
  for (std::size_t step = 0; step <= mask_; ++step) {
    const std::size_t idx = cur_day_ & mask_;
    // One integer compare decides whether this day's bucket can hold a due
    // event; empty buckets and buckets holding only future-revolution
    // events are skipped without touching their contents. min_day_ is a
    // stale-low bound (take() does not refresh it), so a skip is always
    // sound and a false probe repairs the bound below.
    if (min_day_[idx] > cur_day_) {
      ++cur_day_;
      continue;
    }
    // Candidates are this bucket's events belonging to the current day (the
    // same bucket also holds events whole ring-revolutions in the future);
    // the earliest (time, seq) among them is the global minimum because
    // every earlier day has already been drained.
    const auto& b = buckets_[idx];
    std::size_t best = b.size();
    std::uint64_t bucket_min = kNoDay;
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::uint64_t day = day_of(b[j].time);
      bucket_min = std::min(bucket_min, day);
      if (day <= cur_day_ &&
          (best == b.size() || sim_event_before(b[j], b[best]))) {
        best = j;
      }
    }
    if (best != b.size()) {
      SimEvent out = take(idx, best);
      if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 4) {
        rebucket(buckets_.size() / 2);
      }
      return out;
    }
    // Nothing due: the scan already computed the true bucket minimum, so
    // tighten the stale bound for free before moving on.
    min_day_[idx] = bucket_min;
    ++cur_day_;
  }
  // A full revolution found nothing due: the contents are sparse and far
  // ahead. Jump the pointer to the global minimum instead of spinning.
  std::size_t bucket = 0;
  std::size_t slot = 0;
  find_global_min(&bucket, &slot);
  cur_day_ = day_of(buckets_[bucket][slot].time);
  SimEvent out = take(bucket, slot);
  if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 4) {
    rebucket(buckets_.size() / 2);
  }
  return out;
}

void EventQueue::rebucket(std::size_t nbuckets) {
  // Width estimate: the mean sim-time gap between recently popped events is
  // the rate the frontier advances at; a handful of those gaps per bucket
  // keeps the due bucket short without stranding the scan in empty days.
  double width = 0.0;
  if (pops_since_resize_ >= 8 && last_pop_time_ > first_pop_time_) {
    width = 4.0 * (last_pop_time_ - first_pop_time_) /
            static_cast<double>(pops_since_resize_);
  }
  std::vector<SimEvent> all;
  all.reserve(size_);
  double lo = 0.0;
  double hi = 0.0;
  bool any = false;
  for (auto& b : buckets_) {
    for (const auto& ev : b) {
      if (!any) {
        lo = hi = ev.time;
        any = true;
      } else {
        lo = std::min(lo, ev.time);
        hi = std::max(hi, ev.time);
      }
      all.push_back(ev);
    }
    b.clear();
  }
  if (width <= 0.0 && any && hi > lo && !all.empty()) {
    width = (hi - lo) / static_cast<double>(all.size());  // startup fallback
  }
  if (width <= 0.0 || !std::isfinite(width)) width = 1.0;
  width = std::max(width, 1e-9);
  init(nbuckets, width);
  size_ = all.size();
  for (const auto& ev : all) {
    const std::uint64_t day = day_of(ev.time);
    const std::size_t idx = day & mask_;
    buckets_[idx].push_back(ev);
    if (day < min_day_[idx]) min_day_[idx] = day;
  }
  // Re-anchor the scan pointer on the earliest surviving event so the new
  // day grid starts exactly where the old one left off.
  if (any) {
    std::size_t bucket = 0;
    std::size_t slot = 0;
    find_global_min(&bucket, &slot);
    cur_day_ = day_of(buckets_[bucket][slot].time);
  }
}

}  // namespace scalpel
