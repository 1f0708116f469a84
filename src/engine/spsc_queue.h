// Bounded lock-free single-producer / single-consumer ring buffer — the
// ingest path between a stream's producer thread and its shard worker.
// Classic Lamport queue with cached indices: each side keeps a local copy
// of the other side's index and refreshes it only when the queue looks
// full/empty, so the steady-state cost per element is one relaxed load and
// one release store on one cache line.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <vector>

#include "util/contracts.h"

namespace canids::engine {

/// Smallest power of two >= n (and >= 2, so capacity-1 masks work).
[[nodiscard]] constexpr std::size_t ceil_pow2(std::size_t n) noexcept {
  std::size_t p = 2;
  while (p < n) p <<= 1;
  return p;
}

/// Bounded SPSC FIFO. Exactly one thread may call the push side and one
/// (other) thread the pop side; no locks, no allocation after construction.
/// One slot is sacrificed to distinguish full from empty, so the usable
/// capacity is the ring size - 1.
template <typename T>
class SpscQueue {
 public:
  /// At least `min_capacity` elements fit: the ring size is the smallest
  /// power of two above it.
  explicit SpscQueue(std::size_t min_capacity = 1024)
      : slots_(ceil_pow2(min_capacity + 1)), mask_(slots_.size() - 1) {}

  SpscQueue(const SpscQueue&) = delete;
  SpscQueue& operator=(const SpscQueue&) = delete;

  /// Producer side. Returns false when the queue is full.
  bool try_push(const T& value) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    const std::size_t next = (tail + 1) & mask_;
    if (next == head_cache_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (next == head_cache_) return false;
    }
    slots_[tail] = value;
    tail_.store(next, std::memory_order_release);
    return true;
  }

  /// Producer side: enqueue up to `count` elements from `values` with one
  /// index publish. Returns how many fit (0 when full).
  std::size_t try_push_batch(const T* values, std::size_t count) {
    const std::size_t tail = tail_.load(std::memory_order_relaxed);
    std::size_t free = (head_cache_ + slots_.size() - 1 - tail) & mask_;
    if (free < count) {
      head_cache_ = head_.load(std::memory_order_acquire);
      free = (head_cache_ + slots_.size() - 1 - tail) & mask_;
    }
    const std::size_t pushed = std::min(free, count);
    for (std::size_t i = 0; i < pushed; ++i) {
      slots_[(tail + i) & mask_] = values[i];
    }
    if (pushed > 0) {
      tail_.store((tail + pushed) & mask_, std::memory_order_release);
    }
    return pushed;
  }

  /// Consumer side: move up to `max` elements into `out` (appended), with a
  /// single index publish — amortizes the release store over the batch.
  std::size_t pop_batch(std::vector<T>& out, std::size_t max) {
    CANIDS_EXPECTS(max > 0);
    std::size_t head = head_.load(std::memory_order_relaxed);
    std::size_t tail = tail_cache_;
    if (((tail - head) & mask_) < max) {
      // The cached tail can't fill the batch — refresh it.
      tail = tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail) return 0;
    }
    std::size_t popped = 0;
    while (head != tail && popped < max) {
      out.push_back(slots_[head]);
      head = (head + 1) & mask_;
      ++popped;
    }
    head_.store(head, std::memory_order_release);
    return popped;
  }

  /// Either side: a snapshot of the element count (racy, for diagnostics).
  [[nodiscard]] std::size_t size_approx() const noexcept {
    const std::size_t tail = tail_.load(std::memory_order_acquire);
    const std::size_t head = head_.load(std::memory_order_acquire);
    return (tail - head) & mask_;
  }

 private:
  std::vector<T> slots_;
  std::size_t mask_;

  alignas(64) std::atomic<std::size_t> head_{0};  // next slot to pop
  alignas(64) std::size_t tail_cache_ = 0;        // consumer's view of tail_
  alignas(64) std::atomic<std::size_t> tail_{0};  // next slot to fill
  alignas(64) std::size_t head_cache_ = 0;        // producer's view of head_
};

}  // namespace canids::engine
