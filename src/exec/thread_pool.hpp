// Fixed-size worker pool for the parallel execution runtime.
//
// The pool is deliberately minimal: a bounded set of workers, a FIFO task
// queue, futures for results and exception propagation, and a graceful
// shutdown that still runs every task queued before shutdown() was called.
// All *determinism* machinery (static chunking, per-chunk RNG forking)
// lives one layer up in exec/parallel.hpp — the pool itself only promises
// that every submitted task runs exactly once on some worker thread.
//
// Oversubscription guard: because the runtime's results never depend on
// the worker count, spawning more workers than the machine has cores can
// only add context-switch cost (measured at +23% wall on the 1-core
// reference box).  Harnesses therefore construct their pools with
// `cap_to_hardware`, which clamps the spawned workers to
// default_thread_count() while `requested()` keeps the asked-for size
// for reporting.  Tests that exercise genuine multi-thread interleaving
// (TSan races, hot-swap readers) leave the cap off.
// See DESIGN.md §8 ("Parallel execution runtime").
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

namespace dragon::exec {

/// Construction-time knobs for ThreadPool.
struct PoolOptions {
  /// Clamp the spawned workers to default_thread_count().  Off by
  /// default so tests can force real oversubscription; every bench
  /// harness turns it on (bench_common::make_thread_pool).
  bool cap_to_hardware = false;
};

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 picks default_thread_count()), clamped
  /// per `options`.
  explicit ThreadPool(std::size_t threads = 0, PoolOptions options = {});

  /// Equivalent to shutdown(): drains the queue, then joins every worker.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Workers actually spawned (after any hardware clamp).
  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// The worker count asked for at construction, before clamping —
  /// what harnesses report so a capped run is still attributable to its
  /// --threads flag.
  [[nodiscard]] std::size_t requested() const noexcept { return requested_; }

  /// Enqueues `fn`.  The future resolves once the task ran; an exception
  /// thrown by the task is captured and rethrown by future.get().  Throws
  /// std::logic_error after shutdown().
  std::future<void> submit(std::function<void()> fn);

  /// Graceful shutdown: tasks already queued still run to completion, new
  /// submissions are rejected, workers are joined.  Idempotent.
  void shutdown();

  /// std::thread::hardware_concurrency(), clamped to at least 1 (the
  /// standard allows it to report 0).
  [[nodiscard]] static std::size_t default_thread_count() noexcept;

 private:
  void worker_loop(std::size_t index);

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::packaged_task<void()>> queue_;  // guarded by mu_
  bool stopping_ = false;                         // guarded by mu_
  std::vector<std::thread> workers_;
  std::size_t requested_ = 0;
};

}  // namespace dragon::exec
