// Fixed-size worker pool over a BoundedQueue of tasks.
//
// Submitting more tasks than the queue capacity blocks the submitter
// (backpressure). shutdown() drains already-queued tasks and joins the
// workers; wait() blocks until every submitted task has finished without
// stopping the pool.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "pipeline/bounded_queue.h"

namespace freqdedup {

class ThreadPool {
 public:
  explicit ThreadPool(size_t threads, size_t queueCapacity = 1024);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task, blocking while the task queue is full. Returns false
  /// once shutdown() has been called.
  bool submit(std::function<void()> task);

  /// Enqueues a task without blocking. Returns false when the queue is full
  /// or shutdown() has been called.
  bool trySubmit(std::function<void()> task);

  /// Blocks until all submitted tasks have completed (queue empty, workers
  /// idle), then rethrows the first exception any task threw, if one did.
  /// The pool keeps accepting work afterwards.
  void wait();

  /// Stops accepting tasks, finishes the queued ones, joins all workers.
  /// Idempotent; also called by the destructor.
  void shutdown();

  [[nodiscard]] size_t threadCount() const { return workers_.size(); }

 private:
  void workerLoop();
  void finishOne();
  bool enqueue(std::function<void()> task, bool block);

  BoundedQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable idle_;
  size_t inFlight_ = 0;  // submitted but not yet finished (queued + running)
  std::exception_ptr error_;  // first task exception, rethrown by wait()
};

/// Runs body(begin, end) over sub-ranges of [0, n) on `threads` threads: the
/// calling thread and threads - 1 workers. With threads <= 1 (or a tiny n)
/// the body runs inline on the calling thread. The body must be safe to
/// invoke concurrently on disjoint ranges. Rethrows the first exception the
/// body threw.
void parallelFor(size_t threads, size_t n,
                 const std::function<void(size_t, size_t)>& body);

/// Same, but reuses an existing pool (no per-call thread spawn). The range is
/// cut into blocks that the calling thread and up to threadCount() helper
/// tasks claim from one atomic cursor, so the caller works instead of
/// sleeping while its helpers wait behind other tasks in the pool's queue.
/// The call returns once every block has run, without waiting for helpers
/// that found nothing left; it completes even when no worker is free, so a
/// call from inside a pool task cannot deadlock, and a helper the full
/// queue has no room for is not started. Safe for concurrent callers
/// sharing one pool: each tracks only its own blocks. Every block runs even
/// after one throws; the first exception is rethrown once, on the caller.
void parallelFor(ThreadPool& pool, size_t n,
                 const std::function<void(size_t, size_t)>& body);

/// Pool-or-inline dispatch: runs on `pool` when one is provided, otherwise
/// runs body(0, n) on the calling thread. Lets a component take an optional
/// caller-owned pool without writing the choice out at every call.
void parallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t, size_t)>& body);

/// Cached std::thread::hardware_concurrency(), at least 1.
uint32_t hardwareThreads();

}  // namespace freqdedup
