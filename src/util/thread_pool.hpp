#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace scalpel {

/// Fixed-size thread pool used by the NN kernels, the replication fan-out,
/// the sharded engine, the joint optimizer's surgery step, the online
/// controller's degradation ladder and the distributed plane's cell solves.
/// Tasks are type-erased closures; `parallel_for` provides the common
/// blocked-index pattern over fixed chunk boundaries, each chunk claimed by
/// whichever thread reaches it first.
class ThreadPool {
 public:
  /// n == 0 means one worker per CPU the constructing thread may run on
  /// (its sched_getaffinity mask; hardware_concurrency where that is
  /// unavailable), and at least 1. A pool built under `taskset -c 0` has
  /// size() == 1, so its parallel_for runs inline.
  explicit ThreadPool(std::size_t n = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueue a task; the returned future rethrows any task exception.
  std::future<void> submit(std::function<void()> task);

  /// Calls fn(lo, hi) over contiguous chunks covering [begin, end): at most
  /// size() chunks of fixed boundaries. The calling thread and up to
  /// size() - 1 queued claimer tasks each take the next unclaimed chunk, so
  /// a pool sized to the CPU count never runs more threads than CPUs, and a
  /// call issued from a busy worker still spreads over idle ones. The caller
  /// runs every chunk nobody else has started, then waits only for the
  /// chunks already running elsewhere; it never runs foreign tasks, so
  /// nested calls cannot deadlock. Once every chunk has finished, the
  /// lowest-index chunk's exception (if any) is rethrown.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide shared pool (lazily constructed with the default size,
  /// taken from the affinity of the thread that first asks for it).
  static ThreadPool& shared();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::queue<std::packaged_task<void()>> tasks_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace scalpel
