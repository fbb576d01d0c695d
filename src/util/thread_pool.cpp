#include "util/thread_pool.hpp"

#include <algorithm>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/assert.hpp"

namespace scalpel {
namespace {

// The pool whose worker_loop runs on this thread (nullptr elsewhere).
thread_local const ThreadPool* tl_worker_of = nullptr;

// CPUs this thread may run on. hardware_concurrency counts every CPU of the
// machine, even under `taskset` or a container cpuset.
std::size_t usable_cpus() {
#ifdef __linux__
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
#endif
  return std::thread::hardware_concurrency();
}

}  // namespace

ThreadPool::ThreadPool(std::size_t n) {
  if (n == 0) n = std::max<std::size_t>(1, usable_cpus());
  workers_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  std::packaged_task<void()> packaged(std::move(task));
  auto future = packaged.get_future();
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    SCALPEL_REQUIRE(!stop_, "submit on stopped thread pool");
    tasks_.push(std::move(packaged));
  }
  // A broadcast, not notify_one: glibc before 2.41 can lose a
  // pthread_cond_signal (sourceware bug 25847), which left a queued task
  // with every worker asleep and its parallel_for caller blocked for good.
  cv_.notify_all();
  return future;
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t chunks = std::min(n, workers_.size());
  // On one of this pool's workers, queued chunks could wait behind the
  // very task that blocks on them.
  if (chunks <= 1 || tl_worker_of == this) {
    fn(begin, end);
    return;
  }
  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks - 1);
  std::size_t lo = begin + chunk;  // first chunk runs on the caller
  for (std::size_t c = 1; c < chunks && lo < end; ++c) {
    const std::size_t hi = std::min(end, lo + chunk);
    futures.push_back(submit([&fn, lo, hi] { fn(lo, hi); }));
    lo = hi;
  }
  // An exception (from the caller's chunk or an early future) must not
  // unwind past the remaining futures: their tasks capture `fn` by
  // reference into this frame. Drain every future first, then rethrow.
  std::exception_ptr first_error;
  try {
    fn(begin, std::min(end, begin + chunk));
  } catch (...) {
    first_error = std::current_exception();
  }
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
  tl_worker_of = this;
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      if (stop_ && tasks_.empty()) return;
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    task();
  }
}

}  // namespace scalpel
