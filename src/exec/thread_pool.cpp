#include "exec/thread_pool.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "obs/span.hpp"

namespace dragon::exec {

ThreadPool::ThreadPool(std::size_t threads, PoolOptions options) {
  if (threads == 0) threads = default_thread_count();
  requested_ = threads;
  if (options.cap_to_hardware) {
    threads = std::min(threads, default_thread_count());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() { shutdown(); }

std::size_t ThreadPool::default_thread_count() noexcept {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::future<void> ThreadPool::submit(std::function<void()> fn) {
  std::packaged_task<void()> task(std::move(fn));
  std::future<void> future = task.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      throw std::logic_error("ThreadPool::submit after shutdown");
    }
    queue_.push_back(std::move(task));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && workers_.empty()) return;
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

void ThreadPool::worker_loop(std::size_t index) {
  // Named buffer for the trace export; no-op (and no allocation) unless
  // span recording was enabled before the pool spawned.
  obs::span_set_thread_name("pool.worker-" + std::to_string(index));
  for (;;) {
    std::packaged_task<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      {
        // The idle span covers the whole wait for work (the mutex is
        // released inside cv_.wait), so per-thread idle time is directly
        // attributable in the trace.
        DRAGON_SPAN("pool", "idle");
        cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      }
      // Graceful drain: stopping_ alone does not end the loop while queued
      // work remains — shutdown() promises every accepted task runs.
      if (queue_.empty()) return;
      DRAGON_SPAN("pool", "dequeue");
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    DRAGON_SPAN("pool", "task");
    task();  // exceptions land in the task's shared state, not the worker
  }
}

}  // namespace dragon::exec
