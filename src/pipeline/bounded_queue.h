// Bounded multi-producer/multi-consumer queue.
//
// The backpressure primitive behind ThreadPool's task queue: producers block
// when the queue is full, consumers block when it is empty, and close()
// initiates a graceful drain — queued items are still delivered, after which
// pop() returns nullopt and further pushes fail.
#pragma once

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>

#include "common/check.h"

namespace freqdedup {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity) : capacity_(capacity) {
    FDD_CHECK(capacity > 0);
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Blocks while the queue is full. Returns false iff the queue was closed
  /// (the item is dropped in that case).
  bool push(T item) {
    std::unique_lock lock(mu_);
    notFull_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    if (closed_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    notEmpty_.notify_one();
    return true;
  }

  /// Non-blocking push. Returns false when the queue is full or closed.
  bool tryPush(T item) {
    std::unique_lock lock(mu_);
    if (closed_ || items_.size() >= capacity_) return false;
    items_.push_back(std::move(item));
    lock.unlock();
    notEmpty_.notify_one();
    return true;
  }

  /// Blocks while the queue is empty. Returns nullopt once the queue has been
  /// closed and fully drained.
  std::optional<T> pop() {
    std::unique_lock lock(mu_);
    notEmpty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    lock.unlock();
    notFull_.notify_one();
    return item;
  }

  /// Stops accepting new items and wakes all waiters. Items already queued
  /// are still delivered to pop(). Idempotent.
  void close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    notEmpty_.notify_all();
    notFull_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard lock(mu_);
    return closed_;
  }

  [[nodiscard]] size_t size() const {
    std::lock_guard lock(mu_);
    return items_.size();
  }

  [[nodiscard]] size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable notFull_;
  std::condition_variable notEmpty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace freqdedup
