#pragma once

#include <cstdint>
#include <deque>

#include "ntco/common/contracts.hpp"

/// \file slab.hpp
/// Generation-checked record slab: one record per in-flight request.
///
/// The broker's serves, the controller's runs and the deferred executor's
/// jobs each live in one record from start to finish. Every stage of a
/// request is a member function taking the record's SlabId, so simulator
/// events and platform callbacks capture just [owner, id] instead of
/// threading shared state through nested closures.
///
/// A SlabId packs (generation << 32) | slot — the sim::EventId idiom.
/// release() moves the slot's generation on and puts it on a free list, so
/// every copy of the released id goes stale and fails the check in
/// operator[] before the next acquire() can hand the slot out again.
/// Records live in a std::deque, so growth never moves a live record.
///
/// The slab hides the free list and the generation check, and nothing
/// else: a recycled record keeps whatever its last occupant left in it,
/// and each owner resets its own fields (the broker clears its record on
/// release; the controller keeps a vector's capacity for the next run).
/// sim::Simulator keeps its own arena: its slot layout is specialised for
/// the event heap.

namespace ntco {

/// Names a live slab record: (generation << 32) | slot.
using SlabId = std::uint64_t;

/// Never minted: its slot field is the slab's reserved non-slot.
inline constexpr SlabId kNoSlabId = 0xFFFFFFFFu;

template <class T>
class Slab {
 public:
  /// Takes a free record, or appends a default-constructed one, and
  /// returns its id.
  [[nodiscard]] SlabId acquire() {
    std::uint32_t slot = free_head_;
    if (slot != kNoSlot) {
      free_head_ = entries_[slot].next_free;
    } else {
      NTCO_EXPECTS(entries_.size() < kNoSlot);
      slot = static_cast<std::uint32_t>(entries_.size());
      entries_.emplace_back();
    }
    return (static_cast<SlabId>(entries_[slot].generation) << 32) | slot;
  }

  /// The record `id` names. Pre: `id` was acquired and not yet released.
  [[nodiscard]] T& operator[](SlabId id) { return entry(id).value; }

  /// Returns the record to the free list; `id` goes stale.
  void release(SlabId id) {
    Entry& e = entry(id);
    ++e.generation;
    e.next_free = free_head_;
    free_head_ = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  }

 private:
  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  struct Entry {
    T value{};
    /// Bumped on release, so ids minted for earlier occupants go stale.
    std::uint32_t generation = 0;
    /// Free-list link while the slot is unused.
    std::uint32_t next_free = kNoSlot;
  };

  [[nodiscard]] Entry& entry(SlabId id) {
    const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
    NTCO_EXPECTS(slot < entries_.size());
    Entry& e = entries_[slot];
    NTCO_EXPECTS(e.generation == static_cast<std::uint32_t>(id >> 32));
    return e;
  }

  std::deque<Entry> entries_;
  std::uint32_t free_head_ = kNoSlot;
};

}  // namespace ntco
