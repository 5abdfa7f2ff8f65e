// Fixed-size worker pool used by the experiment harness to run independent
// repetitions concurrently. Tasks are type-erased; parallel_for blocks the
// caller and rethrows the first task exception.
//
// Concurrency contract (machine-checked under clang -Wthread-safety): all
// mutable pool state — the task queue, the in-flight count, and the stop
// flag — is guarded by the single `mutex_` capability. `workers_` is written
// only by the constructor and joined only by the destructor, so it needs no
// guard; no public method may be called concurrently with the destructor
// (the standard lifetime rule, not a lock-order one).
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.hpp"

namespace idde::util {

class ThreadPool {
 public:
  /// threads == 0 picks hardware_concurrency (at least 1).
  explicit ThreadPool(std::size_t threads = 0);

  /// Stops accepting work, drains every queued task, then joins the
  /// workers. TSan-clean by construction: the stop flag flips under
  /// `mutex_` and the join provides the final happens-before edge.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; it may run on any worker at any later point.
  void submit(std::function<void()> task) IDDE_EXCLUDES(mutex_);

  /// Blocks until every submitted task has finished.
  void wait_idle() IDDE_EXCLUDES(mutex_);

 private:
  void worker_loop() IDDE_EXCLUDES(mutex_);

  /// Worker handles; immutable between constructor exit and destructor
  /// entry, hence not guarded.
  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar task_ready_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ IDDE_GUARDED_BY(mutex_);
  std::size_t in_flight_ IDDE_GUARDED_BY(mutex_) = 0;
  bool stopping_ IDDE_GUARDED_BY(mutex_) = false;
};

/// Runs body(i) for i in [0, count) across the pool; blocks until complete.
/// The first exception thrown by any body is rethrown on the caller.
/// Concurrent parallel_for calls on the same pool are allowed; each call
/// tracks its own completion.
void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body);

}  // namespace idde::util
