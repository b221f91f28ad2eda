// Fixed-size worker pool over a BoundedQueue of tasks.
//
// Submitting more tasks than the queue capacity blocks the submitter
// (backpressure). shutdown() drains already-queued tasks and joins the
// workers; wait() blocks until every submitted task has finished without
// stopping the pool.
#pragma once

#include <condition_variable>
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

  BoundedQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable idle_;
  size_t inFlight_ = 0;  // submitted but not yet finished (queued + running)
  std::exception_ptr error_;  // first task exception, rethrown by wait()
};

/// Runs body(begin, end) over sub-ranges of [0, n), distributed across
/// `threads` workers. With threads <= 1 (or a tiny n) the body runs inline on
/// the calling thread. The body must be safe to invoke concurrently on
/// disjoint ranges. Rethrows the first exception the body threw.
void parallelFor(size_t threads, size_t n,
                 const std::function<void(size_t, size_t)>& body);

/// Same, but reuses an existing pool (no per-call thread spawn) and blocks
/// the caller until the range is done. Safe for concurrent callers sharing
/// one pool: each call tracks the completion of its own blocks instead of
/// waiting for the whole pool to go idle, so independent client sessions can
/// drive parallel work through a shared worker pool simultaneously. Rethrows
/// the first exception this call's body threw. The pool must not be shut
/// down while calls are in flight.
void parallelFor(ThreadPool& pool, size_t n,
                 const std::function<void(size_t, size_t)>& body);

/// Pool-or-spawn dispatch: reuses `pool` when one is provided, otherwise
/// spawns `threads` workers for this call. Lets components accept an
/// optional caller-owned pool without duplicating the choice everywhere.
void parallelFor(ThreadPool* pool, size_t threads, size_t n,
                 const std::function<void(size_t, size_t)>& body);

}  // namespace freqdedup
