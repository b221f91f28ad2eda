// Intrusive-list LRU cache keyed by hashable keys.
//
// Models the in-memory fingerprint cache of the DDFS-like prototype
// (Section 7.4): bounded capacity in entries, least-recently-used eviction.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/check.h"

namespace freqdedup {

template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {
    FDD_CHECK(capacity > 0);
  }

  /// Inserts or refreshes a key. Returns true if an eviction occurred.
  bool put(const K& key, V value) {
    auto it = map_.find(key);
    if (it != map_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return false;
    }
    if (map_.size() >= capacity_) {
      // Evict by reusing the victim's list and map nodes, so a full cache
      // inserts without allocating.
      auto node = map_.extract(order_.back().first);
      order_.splice(order_.begin(), order_, node.mapped());
      order_.front() = {key, std::move(value)};
      node.key() = key;
      map_.insert(std::move(node));
      ++evictions_;
      return true;
    }
    order_.emplace_front(key, std::move(value));
    map_.emplace(key, order_.begin());
    return false;
  }

  /// Looks a key up and promotes it to most-recently-used.
  std::optional<V> get(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Membership test that still counts as a use (promotes the entry).
  bool touch(const K& key) { return get(key).has_value(); }

  /// Non-promoting membership test.
  [[nodiscard]] bool contains(const K& key) const {
    return map_.find(key) != map_.end();
  }

  bool erase(const K& key) {
    auto it = map_.find(key);
    if (it == map_.end()) return false;
    order_.erase(it->second);
    map_.erase(it);
    return true;
  }

  void clear() {
    map_.clear();
    order_.clear();
  }

  [[nodiscard]] size_t size() const { return map_.size(); }
  [[nodiscard]] size_t capacity() const { return capacity_; }
  [[nodiscard]] uint64_t evictions() const { return evictions_; }

 private:
  size_t capacity_;
  uint64_t evictions_ = 0;
  std::list<std::pair<K, V>> order_;  // front = most recently used
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash>
      map_;
};

}  // namespace freqdedup
