#include "util/thread_pool.hpp"

#include <atomic>
#include <exception>

#include "util/assert.hpp"

namespace idde::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  IDDE_EXPECTS(task != nullptr);
  {
    const MutexLock lock(mutex_);
    IDDE_ASSERT(!stopping_, "submit after shutdown");
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  const MutexLock lock(mutex_);
  while (in_flight_ != 0) all_done_.wait(mutex_);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      const MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) task_ready_.wait(mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      const MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

void parallel_for(ThreadPool& pool, std::size_t count,
                  const std::function<void(std::size_t)>& body) {
  if (count == 0) return;
  std::exception_ptr first_error;
  Mutex error_mutex;
  std::atomic<std::size_t> next{0};
  // One task per worker, each draining a shared index counter: cheap for
  // both many-tiny and few-large iteration bodies.
  const std::size_t lanes = std::min(pool.size(), count);
  std::size_t lanes_done = 0;
  Mutex done_mutex;
  CondVar done_cv;
  for (std::size_t lane = 0; lane < lanes; ++lane) {
    pool.submit([&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        try {
          body(i);
        } catch (...) {
          const MutexLock lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
      }
      // Notify while holding the lock: the waiter owns done_cv/done_mutex
      // on its stack, and the lock guarantees it cannot observe the final
      // count and destroy them before this worker is done touching them.
      const MutexLock lock(done_mutex);
      if (++lanes_done == lanes) done_cv.notify_all();
    });
  }
  {
    const MutexLock lock(done_mutex);
    while (lanes_done != lanes) done_cv.wait(done_mutex);
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace idde::util
