#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "ntco/common/contracts.hpp"

/// \file slab.hpp
/// Generation-checked record slab: one record per in-flight request.
///
/// The broker's serves, the controller's runs, the deferred executor's jobs
/// and the serverless platform's invocations each live in one record from
/// start to finish. Every stage of a request is a member function taking
/// the record's SlabId, so simulator events and platform callbacks capture
/// just [owner, id] instead of threading shared state through nested
/// closures.
///
/// A SlabId packs (generation << 32) | slot — the sim::EventId idiom. A
/// slot's generation is odd while its record is live and even while the
/// slot is free: acquire() and release() each move it on by one. So every
/// copy of a released id goes stale — operator[] fails its check and
/// find() returns null — before the next acquire() can hand the slot out
/// again, and no id is ever 0 (a live generation is odd).
///
/// Records sit in fixed chunks of kChunkSize, found by shift and mask, so
/// a lookup is two loads and a compare, and growth appends a chunk
/// without moving a live record.
///
/// The slab hides the free list and the generation check, and nothing
/// else: a recycled record keeps whatever its last occupant left in it,
/// and each owner resets its own fields (the broker clears its record on
/// release; the controller keeps a vector's capacity for the next run).
/// sim::Simulator keeps its own arena: its slot layout is specialised for
/// the event queue.

namespace ntco {

/// Names a live slab record: (generation << 32) | slot.
using SlabId = std::uint64_t;

/// Never minted: its slot field is the slab's reserved non-slot.
inline constexpr SlabId kNoSlabId = 0xFFFFFFFFu;

template <class T>
class Slab {
 public:
  /// Takes a free record, or a default-constructed one past the last, and
  /// returns its id. Never returns 0 or kNoSlabId.
  [[nodiscard]] SlabId acquire() {
    std::uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      free_head_ = at(slot).next_free;
    } else {
      NTCO_EXPECTS(size_ < kNoSlot);
      slot = size_++;
      if ((slot & kChunkMask) == 0)
        chunks_.push_back(std::make_unique<Entry[]>(kChunkSize));
    }
    Entry& e = at(slot);
    ++e.generation;  // even (free) -> odd (live)
    return (static_cast<SlabId>(e.generation) << 32) | slot;
  }

  /// The record `id` names. Pre: `id` was acquired and not yet released.
  [[nodiscard]] T& operator[](SlabId id) {
    T* value = find(id);
    NTCO_EXPECTS(value != nullptr);
    return *value;
  }

  /// The record `id` names, or null when `id` is stale (released), names
  /// a slot never handed out, or was never minted at all.
  [[nodiscard]] const T* find(SlabId id) const {
    const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    const auto generation = static_cast<std::uint32_t>(id >> 32);
    if (slot >= size_ || (generation & 1u) == 0) return nullptr;
    const Entry& e = at(slot);
    return e.generation == generation ? &e.value : nullptr;
  }
  [[nodiscard]] T* find(SlabId id) {
    return const_cast<T*>(std::as_const(*this).find(id));
  }

  /// Returns the record to the free list; `id` goes stale.
  void release(SlabId id) {
    NTCO_EXPECTS(find(id) != nullptr);
    const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    Entry& e = at(slot);
    ++e.generation;  // odd (live) -> even (free)
    e.next_free = free_head_;
    free_head_ = slot;
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  static constexpr std::uint32_t kChunkShift = 6;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
  static constexpr std::uint32_t kChunkMask = kChunkSize - 1;

  struct Entry {
    T value{};
    /// Odd while live, even while free; ids minted for earlier occupants
    /// carry an older generation.
    std::uint32_t generation = 0;
    /// Free-list link while the slot is unused.
    std::uint32_t next_free = kNoSlot;
  };

  [[nodiscard]] Entry& at(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }
  [[nodiscard]] const Entry& at(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & kChunkMask];
  }

  std::vector<std::unique_ptr<Entry[]>> chunks_;
  std::uint32_t size_ = 0;  ///< slots handed out at least once
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace ntco
