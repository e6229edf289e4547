#pragma once
// Fixed-size work-stealing-free thread pool with parallel_for helpers.
//
// Client local training inside one simulated global round is embarrassingly
// parallel (each device trains on its own shard), so the experiment drivers
// use parallel_for to spread device training across hardware threads while
// the discrete-event simulator itself stays single-threaded and
// deterministic.  The aggregation layer uses the same pool to fan out its
// numeric kernels (pairwise distances, coordinate partitions).
//
// Nesting: parallel_for / parallel_ranges may be called from inside a worker
// (e.g. an aggregator parallelizing under a parallelized experiment driver).
// The calling thread participates in executing chunks and helper tasks are
// fire-and-forget, so completion never depends on another worker becoming
// free — nested calls cannot deadlock.  Raw submit() + future::wait() from a
// worker does NOT have that property: with every worker blocked on a future
// the queue never drains, so from worker context either avoid waiting or use
// parallel_for, which is safe by construction.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace abdhfl::util {

class ThreadPool {
 public:
  /// threads == 0 means hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Instrumentation snapshot for the observability layer.  wait_seconds is
  /// total enqueue-to-start latency and busy_seconds total execution time of
  /// queued tasks (parallel_for chunks the caller runs inline are not queued
  /// and therefore not counted here).  Counters are relaxed atomics bumped
  /// per task — noise next to the queue's mutex + condition variable — so
  /// metering is always on.
  struct Stats {
    std::uint64_t submitted = 0;
    std::uint64_t completed = 0;
    std::size_t queue_depth = 0;    // at snapshot time
    std::uint64_t queue_peak = 0;   // high-water depth since construction
    double wait_seconds = 0.0;
    double busy_seconds = 0.0;
  };
  [[nodiscard]] Stats stats() const;

  /// Enqueue a task; returns a future for its completion.  The task is
  /// counted in stats() before it can run and again before its future
  /// becomes ready, so a caller that waited on every future reads exact
  /// submitted/completed totals.
  template <class F>
  std::future<void> submit(F&& f) {
    const auto enqueued = std::chrono::steady_clock::now();
    auto task = std::make_shared<std::packaged_task<void()>>(
        [this, fn = std::forward<F>(f), enqueued]() mutable {
          const auto begin = std::chrono::steady_clock::now();
          wait_ns_.fetch_add(
              std::chrono::duration_cast<std::chrono::nanoseconds>(begin - enqueued)
                  .count(),
              std::memory_order_relaxed);
          // Counted before the packaged_task publishes the result (or the
          // exception) to the future.
          try {
            fn();
          } catch (...) {
            note_done(begin);
            throw;
          }
          note_done(begin);
        });
    std::future<void> fut = task->get_future();
    {
      std::lock_guard lock(mutex_);
      submitted_.fetch_add(1, std::memory_order_relaxed);
      queue_.emplace([task] { (*task)(); });
      if (queue_.size() > queue_peak_.load(std::memory_order_relaxed)) {
        queue_peak_.store(queue_.size(), std::memory_order_relaxed);
      }
    }
    cv_.notify_one();
    return fut;
  }

  /// Run body(i) for i in [begin, end), blocking until all complete.
  /// Exceptions from the body propagate (the first one encountered).
  /// Runs inline on the calling thread when the pool has a single worker,
  /// the range has a single element, or max_tasks == 1.
  /// max_tasks caps the number of parallel chunks (0 = pool default); chunk
  /// sizes across the range differ by at most one element.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body,
                    std::size_t max_tasks = 0);

  /// Run body(lo, hi) over a balanced partition of [begin, end) into at most
  /// max_tasks contiguous chunks (0 = pool default).  Same inline and
  /// exception semantics as parallel_for.  Use this when the body wants a
  /// per-chunk scratch buffer (e.g. coordinate tiles).
  void parallel_ranges(std::size_t begin, std::size_t end,
                       const std::function<void(std::size_t, std::size_t)>& body,
                       std::size_t max_tasks = 0);

 private:
  void worker_loop();
  void note_done(std::chrono::steady_clock::time_point begin) noexcept {
    busy_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - begin)
                           .count(),
                       std::memory_order_relaxed);
    completed_.fetch_add(1, std::memory_order_relaxed);
  }

  std::vector<std::thread> workers_;
  std::queue<std::function<void()>> queue_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool stop_ = false;

  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> queue_peak_{0};
  std::atomic<std::int64_t> wait_ns_{0};
  std::atomic<std::int64_t> busy_ns_{0};
};

/// Process-wide pool, lazily constructed.  Experiment binaries share it.
/// Worker count: ABDHFL_POOL_THREADS if set (read at first use), otherwise
/// hardware_concurrency.
ThreadPool& global_pool();

}  // namespace abdhfl::util
