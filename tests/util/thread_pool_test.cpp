#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#ifdef __linux__
#include <pthread.h>
#include <sched.h>
#endif

namespace scalpel {
namespace {

TEST(ThreadPool, SizeDefaultsToHardware) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

#ifdef __linux__
TEST(ThreadPool, DefaultSizeFollowsThreadAffinity) {
  cpu_set_t allowed;
  ASSERT_EQ(sched_getaffinity(0, sizeof(allowed), &allowed), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &allowed)) ++cpu;
  std::size_t size = 0;
  int pin_error = -1;
  std::thread pinned([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pin_error = pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
    const ThreadPool pool;
    size = pool.size();
  });
  pinned.join();
  ASSERT_EQ(pin_error, 0);
  EXPECT_EQ(size, 1u);
}
#endif

TEST(ThreadPool, OneWorkerPoolRunsParallelForInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::size_t calls = 0;
  pool.parallel_for(0, 100, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 100u);
    ++calls;
  });
  EXPECT_EQ(calls, 1u);
}

TEST(ThreadPool, SubmitRunsTask) {
  ThreadPool pool(2);
  std::atomic<int> value{0};
  auto f = pool.submit([&] { value = 42; });
  f.get();
  EXPECT_EQ(value, 42);
}

TEST(ThreadPool, SubmitPropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversExactRange) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(0, hits.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) ++hits[i];
  });
  for (const auto& h : hits) ASSERT_EQ(h, 1);
}

TEST(ThreadPool, ParallelForEmptyRangeIsNoop) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(5, 5, [&](std::size_t, std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(ThreadPool, ParallelForSingleElement) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  pool.parallel_for(10, 11, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) sum += static_cast<int>(i);
  });
  EXPECT_EQ(sum, 10);
}

TEST(ThreadPool, ParallelForSumsCorrectly) {
  ThreadPool pool(8);
  const std::size_t n = 100000;
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(0, n, [&](std::size_t lo, std::size_t hi) {
    std::int64_t local = 0;
    for (std::size_t i = lo; i < hi; ++i) local += static_cast<std::int64_t>(i);
    total += local;
  });
  EXPECT_EQ(total, static_cast<std::int64_t>(n) * (n - 1) / 2);
}

TEST(ThreadPool, ParallelForPropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100,
                        [&](std::size_t lo, std::size_t) {
                          if (lo == 0) throw std::runtime_error("chunk fail");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, ParallelForDrainsEveryChunkBeforeRethrowing) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  EXPECT_THROW(pool.parallel_for(0, hits.size(),
                                 [&](std::size_t lo, std::size_t hi) {
                                   if (lo == 0) {
                                     throw std::runtime_error("first chunk");
                                   }
                                   for (std::size_t i = lo; i < hi; ++i) {
                                     ++hits[i];
                                   }
                                 }),
               std::runtime_error);
  // Four chunks of 25: every chunk but the throwing one finished before the
  // exception reached the caller.
  for (std::size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i], i < 25 ? 0 : 1) << i;
  }
}

TEST(ThreadPool, ParallelForRethrowsTheLowestChunksException) {
  ThreadPool pool(4);
  for (int round = 0; round < 20; ++round) {
    try {
      pool.parallel_for(0, 4, [](std::size_t lo, std::size_t) {
        // Chunk 0 throws last, so a first-come rule would pick another.
        if (lo == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
        throw std::runtime_error(std::to_string(lo));
      });
      FAIL() << "no exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "0") << round;
    }
  }
}

TEST(ThreadPool, ParallelForFromABusyWorkerSharesChunksWithIdleWorkers) {
  // Worker A runs a task whose parallel_for has two chunks; worker B is
  // idle. Each chunk waits for the other to start, so the call completes
  // only if B runs one chunk while A runs the other. The wait is bounded:
  // a pool that runs the chunks one after another fails instead of hanging.
  ThreadPool pool(2);
  std::mutex mutex;
  std::condition_variable cv;
  int arrived = 0;
  std::atomic<int> met{0};
  std::set<std::thread::id> threads;
  pool.submit([&] {
        pool.parallel_for(0, 2, [&](std::size_t, std::size_t) {
          std::unique_lock<std::mutex> lock(mutex);
          threads.insert(std::this_thread::get_id());
          ++arrived;
          cv.notify_all();
          if (cv.wait_for(lock, std::chrono::seconds(10),
                          [&] { return arrived == 2; })) {
            ++met;
          }
        });
      })
      .get();
  EXPECT_EQ(met, 2);
  EXPECT_EQ(threads.size(), 2u);
}

TEST(ThreadPool, NestedParallelForOnSharedPoolCompletes) {
  // One task per worker, each issuing its own parallel_for: with every
  // worker busy, no claimer task runs until its caller has run every chunk
  // itself, so the call must not wait for chunks nobody started.
  ThreadPool& pool = ThreadPool::shared();
  const std::size_t outer = pool.size();
  const std::size_t inner = 64;
  std::vector<std::int64_t> sums(outer, 0);
  std::vector<std::future<void>> tasks;
  for (std::size_t o = 0; o < outer; ++o) {
    tasks.push_back(pool.submit([&, o] {
      std::vector<std::int64_t> part(inner, 0);
      pool.parallel_for(0, inner, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          part[i] = static_cast<std::int64_t>(o * inner + i);
        }
      });
      sums[o] = std::accumulate(part.begin(), part.end(), std::int64_t{0});
    }));
  }
  for (auto& t : tasks) t.get();
  const auto k = static_cast<std::int64_t>(inner);
  for (std::size_t o = 0; o < outer; ++o) {
    EXPECT_EQ(sums[o], static_cast<std::int64_t>(o) * k * k + k * (k - 1) / 2)
        << o;
  }
}

TEST(ThreadPool, NestedParallelForPropagatesExceptions) {
  ThreadPool& pool = ThreadPool::shared();
  EXPECT_THROW(
      pool.parallel_for(0, 8,
                        [&](std::size_t, std::size_t) {
                          pool.parallel_for(
                              0, 8, [](std::size_t lo, std::size_t) {
                                if (lo == 0) {
                                  throw std::runtime_error("inner");
                                }
                              });
                        }),
      std::runtime_error);
}

TEST(ThreadPool, SharedPoolIsSingleton) {
  EXPECT_EQ(&ThreadPool::shared(), &ThreadPool::shared());
}

TEST(ThreadPool, ManySmallTasks) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  std::vector<std::future<void>> fs;
  for (int i = 0; i < 200; ++i) {
    fs.push_back(pool.submit([&] { ++count; }));
  }
  for (auto& f : fs) f.get();
  EXPECT_EQ(count, 200);
}

}  // namespace
}  // namespace scalpel
