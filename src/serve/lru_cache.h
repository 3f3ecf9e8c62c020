// A small bounded LRU result cache for the query engine.
//
// Deterministic by construction: contents and hit/miss behaviour are a pure
// function of the sequence of get/put calls (capacity eviction is strict
// least-recently-used), so a query replay produces identical cache
// statistics on every run. Not thread-safe: the query engine consults its
// one cache in input order on the session thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

namespace itm::serve {

template <typename Value>
class LruCache {
 public:
  // capacity == 0 disables caching entirely (every get misses).
  explicit LruCache(std::size_t capacity) : capacity_(capacity) {}

  [[nodiscard]] std::optional<Value> get(const std::string& key) {
    const auto it = index_.find(key);
    if (it == index_.end()) {
      ++misses_;
      return std::nullopt;
    }
    ++hits_;
    entries_.splice(entries_.begin(), entries_, it->second);
    return it->second->second;
  }

  void put(const std::string& key, Value value) {
    if (capacity_ == 0) return;
    const auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      entries_.splice(entries_.begin(), entries_, it->second);
      return;
    }
    if (entries_.size() >= capacity_) {
      index_.erase(entries_.back().first);
      entries_.pop_back();
      ++evictions_;
    }
    entries_.emplace_front(key, std::move(value));
    index_.emplace(key, entries_.begin());
  }

  // The cached value for `key`, or null; neither counted nor refreshed.
  [[nodiscard]] Value* peek(const std::string& key) {
    const auto it = index_.find(key);
    return it == index_.end() ? nullptr : &it->second->second;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::uint64_t hits() const { return hits_; }
  [[nodiscard]] std::uint64_t misses() const { return misses_; }
  [[nodiscard]] std::uint64_t evictions() const { return evictions_; }

 private:
  std::size_t capacity_;
  std::list<std::pair<std::string, Value>> entries_;  // front = most recent
  std::unordered_map<std::string,
                     typename std::list<std::pair<std::string, Value>>::
                         iterator>
      index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace itm::serve
