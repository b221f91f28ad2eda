#include "pipeline/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <utility>

namespace freqdedup {

ThreadPool::ThreadPool(size_t threads, size_t queueCapacity)
    : tasks_(queueCapacity) {
  FDD_CHECK(threads > 0);
  workers_.reserve(threads);
  for (size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() { shutdown(); }

void ThreadPool::workerLoop() {
  while (auto task = tasks_.pop()) {
    try {
      (*task)();
    } catch (...) {
      // Worker threads must not unwind (std::terminate); park the first
      // exception for wait() to rethrow on the submitting thread.
      std::lock_guard lock(mu_);
      if (!error_) error_ = std::current_exception();
    }
    finishOne();
  }
}

void ThreadPool::finishOne() {
  std::lock_guard lock(mu_);
  if (--inFlight_ == 0) idle_.notify_all();
}

bool ThreadPool::submit(std::function<void()> task) {
  return enqueue(std::move(task), /*block=*/true);
}

bool ThreadPool::trySubmit(std::function<void()> task) {
  return enqueue(std::move(task), /*block=*/false);
}

bool ThreadPool::enqueue(std::function<void()> task, bool block) {
  {
    std::lock_guard lock(mu_);
    ++inFlight_;
  }
  if (!(block ? tasks_.push(std::move(task))
              : tasks_.tryPush(std::move(task)))) {
    finishOne();  // never ran: roll the accounting back
    return false;
  }
  return true;
}

void ThreadPool::wait() {
  std::unique_lock lock(mu_);
  idle_.wait(lock, [&] { return inFlight_ == 0; });
  if (error_) {
    std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ThreadPool::shutdown() {
  tasks_.close();
  for (auto& worker : workers_)
    if (worker.joinable()) worker.join();
}

void parallelFor(size_t threads, size_t n,
                 const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (threads <= 1 || n == 1) {
    body(0, n);
    return;
  }
  // The calling thread joins the pool's workers, so `threads - 1` of them
  // give `threads` in all.
  ThreadPool pool(threads - 1, std::min(n, threads * 4));
  parallelFor(pool, n, body);
}

namespace {

/// One parallelFor call's blocks. Helper tasks share ownership, so a helper
/// that starts after the call returned finds no block left to claim and
/// touches nothing else; `body` is read only after a successful claim, and
/// the caller waits for every claimed block to finish.
struct ParallelForState {
  ParallelForState(const std::function<void(size_t, size_t)>& body, size_t n,
                   size_t blockSize)
      : body(body),
        n(n),
        blockSize(blockSize),
        blocks((n + blockSize - 1) / blockSize),
        remaining(blocks) {}

  const std::function<void(size_t, size_t)>& body;
  const size_t n;
  const size_t blockSize;
  const size_t blocks;
  std::atomic<size_t> nextBlock{0};
  std::mutex mu;
  std::condition_variable done;
  size_t remaining;          // blocks not yet finished, guarded by mu
  std::exception_ptr error;  // first body exception, guarded by mu
};

/// Claims and runs blocks until none is left. Never throws.
void runBlocks(ParallelForState& state) {
  for (;;) {
    const size_t block = state.nextBlock.fetch_add(1);
    if (block >= state.blocks) return;
    const size_t begin = block * state.blockSize;
    const size_t end = std::min(state.n, begin + state.blockSize);
    std::exception_ptr error;
    try {
      state.body(begin, end);
    } catch (...) {
      error = std::current_exception();
    }
    std::lock_guard lock(state.mu);
    if (error && !state.error) state.error = std::move(error);
    // Drop this block's reference under the lock, not after it: once the
    // count reaches zero the caller may rethrow and free the exception.
    error = nullptr;
    if (--state.remaining == 0) state.done.notify_all();
  }
}

}  // namespace

void parallelFor(ThreadPool& pool, size_t n,
                 const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {
    body(0, 1);
    return;
  }
  // 4 blocks per worker smooths out uneven per-item cost.
  const size_t blocks = std::min(n, pool.threadCount() * 4);
  const auto state =
      std::make_shared<ParallelForState>(body, n, (n + blocks - 1) / blocks);

  // The caller claims blocks too, so it never waits for a helper to reach
  // the front of the pool's queue, and a call from inside a pool task
  // completes even when every worker is busy. A helper the queue has no
  // room for is simply not started.
  const size_t helpers = std::min(pool.threadCount(), state->blocks - 1);
  for (size_t h = 0; h < helpers; ++h)
    if (!pool.trySubmit([state] { runBlocks(*state); })) break;
  runBlocks(*state);

  std::exception_ptr error;
  {
    std::unique_lock lock(state->mu);
    state->done.wait(lock, [&state] { return state->remaining == 0; });
    // Take the exception out of the shared state: a late helper may drop
    // the state's last reference, and the exception must not be freed
    // there while this thread still handles it.
    error = std::move(state->error);
  }
  if (error) std::rethrow_exception(error);
}

void parallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t, size_t)>& body) {
  if (pool != nullptr) {
    parallelFor(*pool, n, body);
  } else if (n > 0) {
    body(0, n);
  }
}

uint32_t hardwareThreads() {
  static const uint32_t hw =
      std::max(1u, std::thread::hardware_concurrency());
  return hw;
}

}  // namespace freqdedup
