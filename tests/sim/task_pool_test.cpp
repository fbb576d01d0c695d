// Unit backfill for the task-pool layer the event engine builds on: the SoA free-list discipline and the IndexDeque's
// head-cursor compaction — edge cases the integration suites only hit
// probabilistically.

#include "sim/task_pool.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace scalpel {
namespace {

TEST(TaskPool, AcquireGrowsAndRecyclesLifo) {
  TaskPool pool;
  const TaskIndex a = pool.acquire();
  const TaskIndex b = pool.acquire();
  const TaskIndex c = pool.acquire();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(pool.live(), 3u);
  EXPECT_EQ(pool.capacity(), 3u);

  pool.release(b);
  pool.release(a);
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.capacity(), 3u);  // slots recycle; the arrays never shrink

  // LIFO: the most recently released slot comes back first.
  EXPECT_EQ(pool.acquire(), a);
  EXPECT_EQ(pool.acquire(), b);
  EXPECT_EQ(pool.live(), 3u);
  EXPECT_EQ(pool.capacity(), 3u);  // no growth while the free list serves
}

TEST(TaskPool, AcquireResetsRecycledSlotState) {
  TaskPool pool;
  const TaskIndex t = pool.acquire();
  pool.device_done[t] = 4.5;
  pool.upload_done[t] = 5.5;
  pool.retries[t] = 7;
  pool.flags[t] = TaskPool::kCounted | TaskPool::kFaulted;
  pool.arrival[t] = 1.25;  // NOT reset: the arrival path always overwrites
  pool.release(t);

  const TaskIndex r = pool.acquire();
  ASSERT_EQ(r, t);
  EXPECT_EQ(pool.device_done[r], 0.0);
  EXPECT_EQ(pool.upload_done[r], 0.0);
  EXPECT_EQ(pool.retries[r], 0);
  EXPECT_EQ(pool.flags[r], 0);
  EXPECT_FALSE(pool.counted(r));
  EXPECT_FALSE(pool.faulted(r));
}

TEST(TaskPool, FlagQueries) {
  TaskPool pool;
  const TaskIndex t = pool.acquire();
  pool.flags[t] |= TaskPool::kCounted;
  EXPECT_TRUE(pool.counted(t));
  EXPECT_FALSE(pool.faulted(t));
  pool.flags[t] |= TaskPool::kFaulted;
  EXPECT_TRUE(pool.faulted(t));
}

TEST(TaskPool, LiveTracksAcquireRelease) {
  TaskPool pool;
  std::vector<TaskIndex> held;
  for (int i = 0; i < 10; ++i) held.push_back(pool.acquire());
  EXPECT_EQ(pool.live(), 10u);
  for (const TaskIndex t : held) pool.release(t);
  EXPECT_EQ(pool.live(), 0u);
  EXPECT_EQ(pool.capacity(), 10u);
}

// take() and put() move a whole row: every field survives a trip between
// two pools, and take() frees the source slot.
TEST(TaskPool, TakePutMovesEveryField) {
  TaskPool from;
  TaskPool to;
  to.acquire();  // the row lands in a different slot than it left
  const TaskIndex t = from.acquire();
  from.id[t] = 77;
  from.arrival[t] = 1.5;
  from.difficulty[t] = 0.25;
  from.rtt[t] = 0.01;
  from.bw_weight[t] = 2.0;
  from.cpu_weight[t] = 3.0;
  from.device_done[t] = 1.75;
  from.upload_done[t] = 1.9;
  from.phases[t].server_time = 0.4;
  from.device[t] = 5;
  from.server[t] = 2;
  from.retries[t] = 3;
  from.flags[t] = TaskPool::kCounted | TaskPool::kFaulted;

  const TaskIndex u = to.put(from.take(t));
  EXPECT_EQ(from.live(), 0u);
  EXPECT_EQ(u, 1u);
  EXPECT_EQ(to.id[u], 77u);
  EXPECT_EQ(to.arrival[u], 1.5);
  EXPECT_EQ(to.difficulty[u], 0.25);
  EXPECT_EQ(to.rtt[u], 0.01);
  EXPECT_EQ(to.bw_weight[u], 2.0);
  EXPECT_EQ(to.cpu_weight[u], 3.0);
  EXPECT_EQ(to.device_done[u], 1.75);
  EXPECT_EQ(to.upload_done[u], 1.9);
  EXPECT_EQ(to.phases[u].server_time, 0.4);
  EXPECT_EQ(to.device[u], 5);
  EXPECT_EQ(to.server[u], 2);
  EXPECT_EQ(to.retries[u], 3u);
  EXPECT_TRUE(to.counted(u));
  EXPECT_TRUE(to.faulted(u));
}

TEST(IndexDeque, FifoOrder) {
  IndexDeque q;
  EXPECT_TRUE(q.empty());
  for (TaskIndex t = 0; t < 5; ++t) q.push_back(t);
  EXPECT_EQ(q.size(), 5u);
  EXPECT_EQ(q.front(), 0u);
  for (TaskIndex t = 0; t < 5; ++t) EXPECT_EQ(q.pop_front(), t);
  EXPECT_TRUE(q.empty());
}

TEST(IndexDeque, CompactionPreservesOrderAcrossThreshold) {
  // Drive head_ past the compaction trigger (head_ >= 64 and dead prefix >=
  // half the buffer) while the queue stays non-empty, and check the stream
  // comes out in exact FIFO order anyway.
  IndexDeque q;
  TaskIndex next_push = 0;
  TaskIndex next_pop = 0;
  for (int i = 0; i < 200; ++i) q.push_back(next_push++);
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 3; ++i) {
      ASSERT_FALSE(q.empty());
      ASSERT_EQ(q.pop_front(), next_pop++);
    }
    q.push_back(next_push++);
  }
  while (!q.empty()) ASSERT_EQ(q.pop_front(), next_pop++);
  EXPECT_EQ(next_pop, next_push);
}

TEST(IndexDeque, EraseAtLivePositions) {
  IndexDeque q;
  for (TaskIndex t = 0; t < 6; ++t) q.push_back(t);
  // Shift the live window so positions are relative to the head cursor, not
  // the backing buffer.
  EXPECT_EQ(q.pop_front(), 0u);
  EXPECT_EQ(q.pop_front(), 1u);
  // Live: 2 3 4 5
  q.erase_at(1);  // removes 3
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.at(0), 2u);
  EXPECT_EQ(q.at(1), 4u);
  EXPECT_EQ(q.at(2), 5u);
  q.erase_at(0);  // removes the front
  EXPECT_EQ(q.front(), 4u);
  q.erase_at(q.size() - 1);  // removes the back
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.pop_front(), 4u);
  EXPECT_TRUE(q.empty());
}

TEST(IndexDeque, ClearResetsHeadCursor) {
  IndexDeque q;
  for (TaskIndex t = 0; t < 8; ++t) q.push_back(t);
  for (int i = 0; i < 3; ++i) q.pop_front();
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  q.push_back(42);
  EXPECT_EQ(q.front(), 42u);
  EXPECT_EQ(q.size(), 1u);
}

}  // namespace
}  // namespace scalpel
