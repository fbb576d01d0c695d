#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <vector>

#include "oracles/oracles.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace scalpel {
namespace {

std::vector<SimEvent> drain(EventQueue& q) {
  std::vector<SimEvent> out;
  while (!q.empty()) out.push_back(q.pop_min());
  return out;
}

TEST(CalendarQueue, PopsInTimeOrder) {
  EventQueue q;
  Rng rng(42);
  std::vector<double> times;
  for (int i = 0; i < 500; ++i) {
    const double t = 100.0 * rng.uniform();
    times.push_back(t);
    q.push(t, 0, i, 0);
  }
  std::sort(times.begin(), times.end());
  const auto popped = drain(q);
  ASSERT_EQ(popped.size(), times.size());
  for (std::size_t i = 0; i < popped.size(); ++i) {
    EXPECT_EQ(popped[i].time, times[i]);
    if (i > 0) {
      EXPECT_TRUE(sim_event_before(popped[i - 1], popped[i]));
    }
  }
}

TEST(CalendarQueue, EqualTimesPopInPushOrder) {
  // The seq tiebreak makes (time, seq) a strict total order: ties resolve
  // to push order, exactly like the reference heap.
  EventQueue q;
  for (int i = 0; i < 100; ++i) q.push(1.5, 0, i, 0);
  const auto popped = drain(q);
  ASSERT_EQ(popped.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(popped[static_cast<std::size_t>(i)].a, i);
}

TEST(CalendarQueue, GrowsAndShrinksWithLoad) {
  EventQueue q;
  Rng rng(7);
  // Interleave pushes with pops so the width estimator sees real pop gaps.
  double now = 0.0;
  std::size_t pushed = 0;
  for (int i = 0; i < 5000; ++i) {
    q.push(now + rng.exponential(1.0), 0, i, 0);
    ++pushed;
    if (i % 3 == 0 && !q.empty()) {
      now = q.pop_min().time;
      --pushed;
    }
  }
  EXPECT_EQ(q.size(), pushed);
  double last = 0.0;
  while (!q.empty()) {
    const SimEvent ev = q.pop_min();
    EXPECT_GE(ev.time, last);
    last = ev.time;
  }
}

TEST(CalendarQueue, SparseFarFutureEventsAreFound) {
  // A near cluster plus events days beyond the ring's span: after the near
  // ones drain, the global-min fallback must land on the far ones instead
  // of spinning over empty buckets.
  EventQueue q;
  for (int i = 0; i < 64; ++i) q.push(0.001 * i, 0, i, 0);
  q.push(1e6, 0, -2, 0);
  q.push(2e6, 0, -3, 0);
  const auto popped = drain(q);
  ASSERT_EQ(popped.size(), 66u);
  EXPECT_EQ(popped[64].a, -2);
  EXPECT_EQ(popped[65].a, -3);
}

TEST(CalendarQueue, PushBehindScanPointerStillPops) {
  // The simulator may schedule an event at (or barely after) the time of
  // the event being dispatched — a day the scan pointer already passed if
  // widths shrank. The queue must rewind rather than lose it.
  EventQueue q;
  for (int i = 0; i < 256; ++i) {
    q.push(10.0 + 0.1 * i, 0, i, 0);
  }
  // Drain half (advances cur_day_ deep into the ring), then push earlier.
  for (int i = 0; i < 128; ++i) (void)q.pop_min();
  q.push(10.0 + 0.1 * 127, 0, -5, 0);  // behind the scan pointer
  const SimEvent next = q.pop_min();
  EXPECT_EQ(next.a, -5);
}

TEST(CalendarQueue, AllEventsAtOneInstant) {
  // Zero pop-time spread drives the width estimate to its clamp; ordering
  // must survive.
  EventQueue q;
  for (int i = 0; i < 300; ++i) q.push(7.25, 0, i, 0);
  const auto popped = drain(q);
  ASSERT_EQ(popped.size(), 300u);
  for (int i = 0; i < 300; ++i) {
    EXPECT_EQ(popped[static_cast<std::size_t>(i)].a, i);
  }
}

TEST(CalendarQueue, RejectsNonFiniteAndNegativeTimes) {
  EventQueue q;
  EXPECT_THROW(q.push(-1.0, 0, 0, 0), ContractViolation);
  EXPECT_THROW(q.push(std::numeric_limits<double>::quiet_NaN(), 0, 0, 0),
               ContractViolation);
  EXPECT_THROW(q.push(std::numeric_limits<double>::infinity(), 0, 0, 0),
               ContractViolation);
}

TEST(EventQueue, CalendarMatchesHeapOracleOnRandomStreams) {
  // Property check: identical interleaved push/pop streams through both
  // implementations produce identical pop sequences (time, seq, payload).
  for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    EventQueue cal;
    BinaryHeapEventQueue heap;
    Rng rng(seed);
    double now = 0.0;
    for (int step = 0; step < 4000; ++step) {
      const double u = rng.uniform();
      if (u < 0.55 || cal.empty()) {
        // Mix of near-future, same-instant and far-future pushes, on a few
        // different time scales to stress the width estimator.
        double t = now;
        const double v = rng.uniform();
        if (v < 0.4) {
          t = now + rng.exponential(2.0);
        } else if (v < 0.7) {
          t = now + rng.exponential(0.01);
        } else if (v < 0.9) {
          t = now;  // same instant: seq tiebreak
        } else {
          t = now + 1000.0 * rng.uniform();  // far future
        }
        const auto kind = static_cast<std::uint32_t>(step % 7);
        cal.push(t, kind, step, seed);
        heap.push(t, kind, step, seed);
      } else {
        const SimEvent a = cal.pop_min();
        const SimEvent b = heap.pop_min();
        ASSERT_EQ(a.time, b.time) << "seed " << seed << " step " << step;
        ASSERT_EQ(a.seq, b.seq) << "seed " << seed << " step " << step;
        ASSERT_EQ(a.kind, b.kind);
        ASSERT_EQ(a.a, b.a);
        ASSERT_EQ(a.b, b.b);
        ASSERT_GE(a.time, now);
        now = a.time;
      }
      ASSERT_EQ(cal.size(), heap.size());
    }
    while (!cal.empty()) {
      const SimEvent a = cal.pop_min();
      const SimEvent b = heap.pop_min();
      ASSERT_EQ(a.time, b.time);
      ASSERT_EQ(a.seq, b.seq);
    }
    EXPECT_TRUE(heap.empty());
  }
}

TEST(EventQueue, PeriodicTelemetryQuietZonesMatchHeapOracle) {
  // The telemetry access pattern that made quiet-zone scans expensive: a
  // sparse periodic stream (obs samples every 0.5 s) threaded between dense
  // event bursts, plus far-future stragglers that alias into the same ring
  // buckets. The per-bucket min-day bound must skip quiet days without ever
  // skipping a due event — held to the heap oracle pop for pop.
  EventQueue cal;
  BinaryHeapEventQueue heap;
  auto push_both = [&](double t, std::uint32_t kind, std::int32_t a) {
    cal.push(t, kind, a, 0);
    heap.push(t, kind, a, 0);
  };
  // Periodic grid over the whole horizon, far-future completions up front
  // (they go stale in min_day_ as earlier occupants of their buckets pop).
  for (int i = 0; i < 200; ++i) {
    push_both(0.5 * i, 1, i);
    push_both(100.0 + 0.37 * i, 2, i);
  }
  // Dense bursts around a few instants, pushed while draining.
  int popped = 0;
  double now = 0.0;
  while (!cal.empty()) {
    const SimEvent a = cal.pop_min();
    const SimEvent b = heap.pop_min();
    ASSERT_EQ(a.time, b.time) << "pop " << popped;
    ASSERT_EQ(a.seq, b.seq) << "pop " << popped;
    ASSERT_GE(a.time, now);
    now = a.time;
    if (popped < 300 && popped % 10 == 3) {
      for (int j = 0; j < 5; ++j) push_both(now + 0.001 * j, 3, popped);
    }
    ++popped;
  }
  EXPECT_TRUE(heap.empty());
  EXPECT_GT(popped, 400);
}

TEST(CalendarQueue, ShrinkReanchorThenPushAtPointerStillSorted) {
  // Drive the shrink path hard (drain far below a grown ring's quarter
  // occupancy, so rebucket halves repeatedly and re-anchors the scan
  // pointer), then push new events at and just after the drain frontier —
  // including exactly the last popped instant, which lands at or behind the
  // re-anchored pointer and must rewind it rather than be skipped.
  EventQueue q;
  Rng rng(99);
  std::vector<SimEvent> expected;
  for (int i = 0; i < 2000; ++i) {
    q.push(100.0 * rng.uniform(), 0, i, 0);
  }
  double frontier = 0.0;
  for (int i = 0; i < 1900; ++i) frontier = q.pop_min().time;
  for (int i = 0; i < 50; ++i) {
    // Half exactly at the frontier (behind/at the pointer), half just past.
    const double t = (i % 2 == 0) ? frontier
                                  : frontier + rng.uniform() * 0.5;
    q.push(t, 1, 2000 + i, 0);
  }
  const auto popped = drain(q);
  ASSERT_EQ(popped.size(), 150u);
  for (std::size_t i = 1; i < popped.size(); ++i) {
    ASSERT_TRUE(sim_event_before(popped[i - 1], popped[i]))
        << "event " << i << " out of order after shrink + rewind";
  }
  for (const auto& ev : popped) EXPECT_GE(ev.time, frontier);
}

TEST(EventQueue, PushRawPreservesSeqAcrossDeferral) {
  // The engine bounds an epoch by popping the minimum and pushing it back
  // (push_raw) when it lies at/past the barrier. The re-inserted event must
  // keep its original seq: deferral then resumption yields the identical
  // pop sequence.
  EventQueue q;
  Rng rng(7);
  for (int i = 0; i < 300; ++i) q.push(10.0 * rng.uniform(), 0, i, 0);
  // Walk barriers over the horizon; at each, defer the first beyond-barrier
  // event the way ShardCore::run_until does.
  std::vector<SimEvent> popped;
  for (double barrier = 1.0; barrier <= 11.0; barrier += 1.0) {
    while (!q.empty()) {
      const SimEvent ev = q.pop_min();
      if (ev.time >= barrier) {
        q.push_raw(ev);
        break;
      }
      popped.push_back(ev);
    }
  }
  while (!q.empty()) popped.push_back(q.pop_min());
  ASSERT_EQ(popped.size(), 300u);
  for (std::size_t i = 1; i < popped.size(); ++i) {
    ASSERT_TRUE(sim_event_before(popped[i - 1], popped[i])) << "event " << i;
  }
  // Seqs are a permutation of push order and strictly increasing at equal
  // times — push_raw must not have re-sequenced anything.
  std::vector<std::uint64_t> seqs;
  for (const auto& ev : popped) seqs.push_back(ev.seq);
  std::sort(seqs.begin(), seqs.end());
  for (std::size_t i = 0; i < seqs.size(); ++i) ASSERT_EQ(seqs[i], i);
}

}  // namespace
}  // namespace scalpel
