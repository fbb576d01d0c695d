#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/assert.hpp"

namespace scalpel {
namespace {

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

namespace {

// One parallel_for call's chunks, claimed in index order by the caller and
// by the claimer tasks it queued. Claimers hold it by shared_ptr, so one
// that reaches the queue's front after the call has returned finds every
// chunk taken and touches nothing else.
struct ChunkRun {
  using Fn = std::function<void(std::size_t, std::size_t)>;

  ChunkRun(const Fn& f, std::size_t b, std::size_t e, std::size_t c)
      : fn(&f), begin(b), end(e), chunk(c),
        chunks((e - b + c - 1) / c), errors(chunks) {}

  // Runs unclaimed chunks until none is left. `fn` is dereferenced only for
  // a claimed chunk, and the caller does not return before every claimed
  // chunk has finished.
  void run() {
    for (std::size_t c; (c = next.fetch_add(1)) < chunks;) {
      const std::size_t lo = begin + c * chunk;
      std::exception_ptr error;
      try {
        (*fn)(lo, std::min(end, lo + chunk));
      } catch (...) {
        error = std::current_exception();
      }
      const std::lock_guard<std::mutex> lock(mutex);
      errors[c] = std::move(error);
      if (++finished == chunks) done.notify_all();
    }
  }

  const Fn* fn;
  const std::size_t begin, end, chunk, chunks;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable done;
  std::size_t finished = 0;                 // guarded by mutex
  std::vector<std::exception_ptr> errors;   // per chunk, guarded by mutex
};

}  // namespace

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  const std::size_t max_chunks = std::min(n, workers_.size());
  if (max_chunks <= 1) {
    fn(begin, end);
    return;
  }
  const auto run = std::make_shared<ChunkRun>(
      fn, begin, end, (n + max_chunks - 1) / max_chunks);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    SCALPEL_REQUIRE(!stop_, "parallel_for on stopped thread pool");
    for (std::size_t c = 1; c < run->chunks; ++c) {
      tasks_.emplace([run] { run->run(); });
    }
  }
  cv_.notify_all();  // a broadcast for the reason submit() gives
  run->run();
  // Only chunks another thread started can still be running.
  std::unique_lock<std::mutex> lock(run->mutex);
  run->done.wait(lock, [&] { return run->finished == run->chunks; });
  // The exceptions leave the shared state here: a claimer that drops the
  // last reference to it later must not be the one to free them.
  const std::vector<std::exception_ptr> errors = std::move(run->errors);
  lock.unlock();
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop() {
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
