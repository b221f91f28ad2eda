// Ordered-completion fan-out: produce results on a worker pool with a
// bounded look-ahead window, consume them on the calling thread strictly in
// index order.
//
// This is the restore engine's prefetch primitive: produce(i) fetches,
// decrypts and verifies batch i, consume(i, r) emits it — while up to
// `lookahead` later batches are already being produced. It generalizes to
// any pipeline whose stage-2 must observe stage-1 results in order.
//
// Guarantees:
//  - consume(i, ...) runs on the calling thread, for i = 0..n-1 in order;
//  - at most `lookahead` results beyond the one being consumed are in
//    flight or buffered (O(window) memory);
//  - the exception of the lowest-index failing producer (or the first
//    consume failure) is rethrown on the calling thread after every
//    in-flight producer has drained (no task outlives the call). Results
//    before the failing index are still consumed, in order; nothing at or
//    past it is — exactly the prefix a serial run would have produced.
//
// produce must be safe to invoke concurrently for distinct indices. With a
// null pool or lookahead == 0 everything runs inline on the calling thread.
// produce and consume may themselves run parallelFor on the same pool: its
// caller joins its own blocks, and producers never block on consumers, so
// the pool always drains. A result the call drops unconsumed (at or past a
// failure) is destroyed before the call returns.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <utility>

#include "pipeline/thread_pool.h"

namespace freqdedup {

template <typename R>
void orderedProduceConsume(ThreadPool* pool, size_t lookahead, size_t n,
                           const std::function<R(size_t)>& produce,
                           const std::function<void(size_t, R&&)>& consume) {
  if (n == 0) return;
  if (pool == nullptr || lookahead == 0 || n == 1) {
    for (size_t i = 0; i < n; ++i) consume(i, produce(i));
    return;
  }

  struct State {
    std::mutex mu;
    std::condition_variable ready;
    std::map<size_t, R> results;  // produced, not yet consumed
    std::exception_ptr error;     // failure of the lowest failing index
    size_t failedIndex = SIZE_MAX;  // lowest index whose producer failed
    size_t outstanding = 0;       // submitted, not yet completed producers
  } state;

  size_t nextToSubmit = 0;
  const auto submitOne = [&] {
    const size_t i = nextToSubmit++;
    {
      std::lock_guard lock(state.mu);
      ++state.outstanding;
    }
    const bool accepted = pool->submit([&state, &produce, i] {
      std::optional<R> result;
      std::exception_ptr error;
      try {
        result.emplace(produce(i));
      } catch (...) {
        error = std::current_exception();
      }
      {
        std::lock_guard lock(state.mu);
        if (result) state.results.emplace(i, std::move(*result));
        if (error && i < state.failedIndex) {
          state.failedIndex = i;
          state.error = std::move(error);
        }
        error = nullptr;  // under the lock, as in parallelFor
        --state.outstanding;
        // Notify while holding the lock: the calling thread may otherwise
        // observe completion through another producer, return, and destroy
        // the stack-scoped state before this notify runs (the same
        // discipline as parallelFor's per-call completion latch).
        state.ready.notify_all();
      }
    });
    FDD_CHECK_MSG(accepted, "orderedProduceConsume on a shut-down pool");
  };
  const auto drain = [&] {
    std::unique_lock lock(state.mu);
    state.ready.wait(lock, [&] { return state.outstanding == 0; });
  };

  // Prime the window: the result being consumed plus `lookahead` ahead.
  while (nextToSubmit < n && nextToSubmit < 1 + lookahead) submitOne();

  for (size_t i = 0; i < n; ++i) {
    std::optional<R> result;
    bool failed = false;
    {
      std::unique_lock lock(state.mu);
      // A failure at a LATER index must not wake this wait: producer i is
      // still running and its result will arrive — earlier results keep
      // flowing until the failing index itself is reached.
      state.ready.wait(lock, [&] {
        return state.results.contains(i) || state.failedIndex <= i;
      });
      const auto it = state.results.find(i);
      if (it != state.results.end()) {
        result.emplace(std::move(it->second));
        state.results.erase(it);
      }
      failed = state.error != nullptr;
    }
    if (!result) {
      // Producer i itself failed. Let the rest of the window finish, then
      // surface its failure.
      drain();
      std::rethrow_exception(state.error);
    }
    try {
      consume(i, std::move(*result));
    } catch (...) {
      drain();
      throw;
    }
    // Refill only after consuming, keeping the window guarantee exact (at
    // most `lookahead` results beyond the one being consumed) — and not at
    // all once a later producer failed, when fetching further ahead is
    // wasted work.
    if (!failed && nextToSubmit < n) submitOne();
  }
  drain();
}

}  // namespace freqdedup
