#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "ntco/common/contracts.hpp"

/// \file ring.hpp
/// Lock-free software queues for the serving dataplane — the `llring`-style
/// building block every worker hands work through.
///
/// Two variants, both bounded, power-of-two sized, and mutex-free:
///
///   Ring<T>      single-producer / single-consumer. One cache line per
///                role: the producer owns `tail_` and a cached copy of the
///                consumer's `head_`; the consumer owns `head_` and a cached
///                copy of `tail_`. The cached copies are refreshed (with an
///                acquire load) only when the ring *looks* full/empty, so in
///                steady state each side touches exclusively its own line —
///                no ping-pong, no fences beyond one release store per
///                operation. Batched push_n/pop_n amortise even that store
///                across a whole burst.
///
///   MpscRing<T>  multi-producer / single-consumer — the completion
///                variant. Producers claim slots with a CAS on `tail_`; a
///                per-cell sequence number (Vyukov's bounded-queue scheme)
///                tells the consumer when a claimed cell's payload is
///                actually published, so a stalled producer never lets a
///                later completion be consumed early.
///
/// The release store on the producer side and the acquire load on the
/// consumer side form the happens-before edge the dataplane's determinism
/// contract leans on: everything a worker wrote before pushing a completion
/// (its shard's result slot, its local metrics shard) is visible to the
/// reducer that pops it. Payloads should be small trivially copyable
/// structs (the dataplane moves shard *indices*, never closures).
///
/// Capacity must be a power of two (index arithmetic is a mask, and the
/// monotonically increasing 64-bit positions never wrap in practice).
/// Construction allocates the slot array once; after that neither variant
/// allocates (tests/allocation_count_test.cpp counts every operator new
/// across push/pop and pins zero).

namespace ntco {

namespace dataplane_detail {
inline constexpr std::size_t kCacheLine = 64;

[[nodiscard]] constexpr bool is_pow2(std::size_t v) {
  return v >= 2 && (v & (v - 1)) == 0;
}
}  // namespace dataplane_detail

/// Bounded lock-free SPSC ring. Exactly one thread may push and exactly one
/// thread may pop over the ring's lifetime at any given moment (the roles
/// may migrate between runs with external synchronisation, e.g. a join).
template <class T>
class Ring {
 public:
  /// `capacity` must be a power of two >= 2.
  explicit Ring(std::size_t capacity) : mask_(capacity - 1), slots_(capacity) {
    NTCO_EXPECTS(dataplane_detail::is_pow2(capacity));
  }

  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Producer side. Returns false when the ring is full.
  [[nodiscard]] bool try_push(const T& v) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - cached_head_ > mask_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ > mask_) return false;
    }
    slots_[static_cast<std::size_t>(tail) & mask_] = v;
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  /// Producer side, batched: pushes up to `n` items from `items`, returns
  /// how many fit. One release store publishes the whole burst.
  [[nodiscard]] std::size_t push_n(const T* items, std::size_t n) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    std::uint64_t free = capacity() - (tail - cached_head_);
    if (free < n) {
      cached_head_ = head_.load(std::memory_order_acquire);
      free = capacity() - (tail - cached_head_);
    }
    const std::size_t take = n < free ? n : static_cast<std::size_t>(free);
    for (std::size_t i = 0; i < take; ++i)
      slots_[static_cast<std::size_t>(tail + i) & mask_] = items[i];
    if (take != 0) tail_.store(tail + take, std::memory_order_release);
    return take;
  }

  /// Consumer side. Returns false when the ring is empty.
  [[nodiscard]] bool try_pop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) return false;
    }
    out = std::move(slots_[static_cast<std::size_t>(head) & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  /// Consumer side, batched: pops up to `max_n` items into `out`, returns
  /// how many were available. One release store retires the whole burst.
  [[nodiscard]] std::size_t pop_n(T* out, std::size_t max_n) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    std::uint64_t avail = cached_tail_ - head;
    if (avail < max_n) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      avail = cached_tail_ - head;
    }
    const std::size_t take =
        max_n < avail ? max_n : static_cast<std::size_t>(avail);
    for (std::size_t i = 0; i < take; ++i)
      out[i] = std::move(slots_[static_cast<std::size_t>(head + i) & mask_]);
    if (take != 0) head_.store(head + take, std::memory_order_release);
    return take;
  }

  /// Occupancy snapshot, callable from any thread. Racy by nature (the
  /// controller's load signal, never a correctness input).
  [[nodiscard]] std::size_t size_approx() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

  [[nodiscard]] bool empty_approx() const { return size_approx() == 0; }

 private:
  std::size_t mask_;
  std::vector<T> slots_;
  // Consumer's cache line: its own index plus its stale view of the tail.
  alignas(dataplane_detail::kCacheLine) std::atomic<std::uint64_t> head_{0};
  std::uint64_t cached_tail_ = 0;
  // Producer's cache line: its own index plus its stale view of the head.
  alignas(dataplane_detail::kCacheLine) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t cached_head_ = 0;
};

/// Bounded lock-free MPSC ring — the completion-queue variant: any number
/// of workers push, one reducer pops. Per-cell sequence numbers make a
/// claimed-but-unpublished cell invisible to the consumer.
template <class T>
class MpscRing {
 public:
  /// `capacity` must be a power of two >= 2.
  explicit MpscRing(std::size_t capacity)
      : mask_(capacity - 1), cells_(capacity) {
    NTCO_EXPECTS(dataplane_detail::is_pow2(capacity));
    for (std::size_t i = 0; i < capacity; ++i)
      cells_[i].seq.store(i, std::memory_order_relaxed);
  }

  MpscRing(const MpscRing&) = delete;
  MpscRing& operator=(const MpscRing&) = delete;

  [[nodiscard]] std::size_t capacity() const { return mask_ + 1; }

  /// Any producer. Returns false when the ring is full.
  [[nodiscard]] bool try_push(const T& v) {
    std::uint64_t pos = tail_.load(std::memory_order_relaxed);
    for (;;) {
      Cell& cell = cells_[static_cast<std::size_t>(pos) & mask_];
      const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
      const std::int64_t dif =
          static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
      if (dif == 0) {
        if (tail_.compare_exchange_weak(pos, pos + 1,
                                        std::memory_order_relaxed)) {
          cell.value = v;
          cell.seq.store(pos + 1, std::memory_order_release);
          return true;
        }
      } else if (dif < 0) {
        return false;  // full: the cell is still a lap behind
      } else {
        pos = tail_.load(std::memory_order_relaxed);
      }
    }
  }

  /// The single consumer. Returns false when no published item is ready.
  [[nodiscard]] bool try_pop(T& out) {
    const std::uint64_t pos = head_.load(std::memory_order_relaxed);
    Cell& cell = cells_[static_cast<std::size_t>(pos) & mask_];
    const std::uint64_t seq = cell.seq.load(std::memory_order_acquire);
    if (seq != pos + 1) return false;  // claimed but not yet published, or empty
    out = std::move(cell.value);
    cell.seq.store(pos + capacity(), std::memory_order_release);
    head_.store(pos + 1, std::memory_order_relaxed);
    return true;
  }

  [[nodiscard]] std::size_t size_approx() const {
    const std::uint64_t tail = tail_.load(std::memory_order_acquire);
    const std::uint64_t head = head_.load(std::memory_order_acquire);
    return tail >= head ? static_cast<std::size_t>(tail - head) : 0;
  }

 private:
  struct Cell {
    std::atomic<std::uint64_t> seq{0};
    T value{};
  };

  std::size_t mask_;
  std::vector<Cell> cells_;
  alignas(dataplane_detail::kCacheLine) std::atomic<std::uint64_t> head_{0};
  alignas(dataplane_detail::kCacheLine) std::atomic<std::uint64_t> tail_{0};
};

}  // namespace ntco
