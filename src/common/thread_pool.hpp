// Fixed-size worker pool with a FIFO task queue, plus a blocking
// parallel_for helper. This is the only place the library spawns threads;
// both concurrent consumers — the work-sharing branch-and-bound
// (src/milp/branch_and_bound.cpp, at two or more threads) and the seed-sweep runner
// (bench/sweep_runner.cpp) — build on it. See docs/parallelism.md for the
// threading model and lock order.
//
// Sizing: an explicit thread count wins; 0 defers to default_threads(),
// which honours the NOCDEPLOY_THREADS environment variable before falling
// back to std::thread::hardware_concurrency().
#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nd {

class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 → default_threads()). The pool is
  /// fixed-size for its whole lifetime.
  explicit ThreadPool(int num_threads = 0);

  /// Drains the queue: blocks until every submitted task has finished, then
  /// joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue a task. Tasks must not throw out of their body unless the
  /// caller arranges to observe the exception (parallel_for does); an
  /// exception escaping a bare submit() task terminates the process.
  void submit(std::function<void()> task);

  /// Block until the queue is empty AND no worker is mid-task.
  void wait_idle();

  /// NOCDEPLOY_THREADS if set to a positive integer, else
  /// hardware_concurrency(), never below 1.
  [[nodiscard]] static int default_threads();

  /// Pool slot of the calling thread: 0..size()-1 inside a worker, -1 on any
  /// thread that is not a pool worker (including the main thread). Stable for
  /// the worker's whole lifetime, so per-worker state — telemetry registries,
  /// trace lanes — can key on it instead of std::this_thread::get_id().
  [[nodiscard]] static int current_worker_index();

  /// Thread-local count of telemetry spans currently open on the calling
  /// thread (maintained by obs::Span). Workers check it around every task:
  /// a task that returns with a span still open would leave a dangling RAII
  /// scope crossing task boundaries — the pool aborts with a clear error
  /// instead of letting wait_idle() report a "drained" pool whose timing
  /// data silently bleeds between tasks.
  [[nodiscard]] static int& open_spans();

 private:
  void worker_loop(int slot);

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers wait here for tasks
  std::condition_variable idle_cv_;  ///< wait_idle() waits here
  std::deque<std::function<void()>> queue_;
  int active_ = 0;       ///< workers currently running a task
  bool stopping_ = false;
  std::vector<std::thread> workers_;
};

/// Run fn(0), …, fn(n-1) on the pool and block until all complete. If any
/// invocation throws, the exception of the LOWEST index that threw is
/// rethrown here (the remaining iterations still run to completion, so the
/// pool is left clean). With an empty pool-equivalent (n <= 0) this is a
/// no-op.
void parallel_for(ThreadPool& pool, int n, const std::function<void(int)>& fn);

}  // namespace nd
