#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "ntco/common/contracts.hpp"
#include "ntco/common/inline_function.hpp"
#include "ntco/common/units.hpp"
#include "ntco/obs/trace.hpp"

/// \file simulator.hpp
/// Deterministic discrete-event simulation kernel.
///
/// The kernel is single-threaded and deterministic: events that share a
/// timestamp fire in the order they were scheduled. All platform simulators
/// (serverless, edge, network, scheduler, CI/CD) are built on this kernel, in
/// the role EdgeCloudSim / iFogSim play for published offloading studies.
///
/// Storage layout (see DESIGN.md "Simulator event kernel"):
///  - Handlers live in a chunked slot arena (512 slots per chunk, one
///    cache line per slot), so growth never moves a live handler and a
///    slot address is stable for the event's lifetime. Free slots are
///    threaded into an intrusive free list through the seq field.
///  - Per-slot lifecycle state and the recycle generation are packed into
///    a parallel 4-byte meta word ((generation << 2) | state, states
///    free / pending / firing), so cancel() checks an id with one load
///    instead of touching a 64-byte slot.
///  - The ready queue is a monotone radix bucket queue keyed on the event
///    time in microseconds (Ahuja, Mehlhorn, Orlin & Tarjan, JACM 1990).
///    Simulated time never moves backwards, so every pending time is at
///    or above a base, the time of the last refill. Bucket (level L,
///    6-bit digit d) holds the events whose time agrees with the base
///    above digit L and has digit d there: 11 levels x 64 digits cover
///    every non-negative 64-bit time, and a level-0 bucket holds exactly
///    one time. One occupancy mask per level plus a level mask find the
///    lowest non-empty bucket, which holds the earliest events. Each
///    bucket is an intrusive doubly linked list through a parallel
///    16-byte per-slot link (time, next, prev), appended in schedule
///    order, so list order is the FIFO tie-break and no seq is compared.
///
/// An EventId packs (generation << 32) | slot, so cancel() finds its event
/// in O(1), no hash sets, and a stale id from a recycled slot is rejected
/// by its generation mismatch. Cancellation is eager: cancel() unlinks the
/// event from its bucket in O(1), destroys the handler and frees the slot
/// at once, so a cancelled timer costs nothing afterwards. An event fires
/// in place: it is unlinked from its level-0 bucket, its slot is marked
/// firing (a cancel() of its own id returns false), the handler runs from
/// the arena slot, and the slot is released when the handler returns or
/// throws. Handlers are InlineHandler, a 48-byte small-buffer callable; a
/// larger capture set does not compile, so scheduling never touches the
/// allocator once the arena has grown.
///
/// Observability: attach an obs::TraceSink to log every event lifecycle
/// transition ("sim.event.scheduled" / "sim.event.fired" /
/// "sim.event.cancelled", see DESIGN.md "Observability"). With no sink
/// attached the hooks cost one branch per transition and nothing else.
/// Trace records carry the event's schedule sequence number (field "seq"),
/// which is independent of the slot/generation id encoding — traces are a
/// pure function of the schedule/cancel/fire history, not of arena layout.

namespace ntco::sim {

/// Opaque handle for a scheduled event; usable to cancel it. Packs
/// (generation << 32) | slot; treat as opaque. Value 0 is a real id (slot
/// 0, generation 0) — callers that need an "absent event" value must use
/// kNoEvent, never 0.
using EventId = std::uint64_t;

/// Reserved id no schedule_*() call ever returns: its slot field is the
/// arena's reserved non-slot, which acquire_slot() can never hand out.
/// cancel(kNoEvent) is a safe no-op that returns false.
inline constexpr EventId kNoEvent = 0xFFFFFFFFu;

/// Handler storage for scheduled events: move-only, with a 48-byte inline
/// buffer that covers this + shared_ptr + an id. A callable that does not
/// fit is a compile error. Move-only captures are allowed.
using InlineHandler = InlineFunction<void(), 48>;

/// Single-threaded discrete-event simulator.
///
/// Usage:
///   Simulator sim;
///   sim.schedule_after(Duration::millis(5), [&]{ ... });
///   sim.run();
class Simulator : public obs::TraceClock {
 public:
  using Handler = InlineHandler;

  /// Current simulated time. Monotonically non-decreasing.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// obs::TraceClock: lets traced components that hold no Simulator
  /// reference (network links) timestamp their records.
  [[nodiscard]] TimePoint trace_now() const override { return now_; }

  /// Attaches a sink receiving every event lifecycle record; nullptr
  /// detaches. The sink must outlive the simulator or be detached first.
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  /// Schedules `fn` at absolute time `t`. `fn` is any callable a Handler
  /// accepts, constructed straight into the event's arena slot, or a
  /// Handler, which moves in and must not be empty. Pre: t >= now().
  template <class F>
  EventId schedule_at(TimePoint t, F&& fn) {
    constexpr bool kHandler = std::is_same_v<F, Handler>;
    if constexpr (!kHandler &&
                  !(Handler::wraps<F>() &&
                    std::is_nothrow_constructible_v<std::decay_t<F>, F>)) {
      // Not built in the slot (an empty or lvalue Handler, nullptr, or a
      // callable whose construction may throw): convert first, so a
      // throw leaves the arena untouched.
      return schedule_at(t, Handler(std::forward<F>(fn)));
    } else {
      NTCO_EXPECTS(t >= now_);
      if constexpr (kHandler) NTCO_EXPECTS(fn != nullptr);
      const std::uint32_t slot = acquire_slot();
      Slot& s = slot_ref(slot);
      const std::uint64_t seq = next_seq_++;
      s.seq = seq;
      if constexpr (kHandler)
        s.fn = std::move(fn);
      else
        s.fn.emplace(std::forward<F>(fn));
      meta_[slot] |= kPending;  // state was Free (0); generation unchanged
      const std::uint64_t key = key_of(t);
      links_[slot].time = key;
      append(bucket_of(key), slot);
      ++pending_;
      if (trace_)
        obs::emit(trace_, now_, "sim.event.scheduled",
                  {{"seq", seq}, {"at", t}});
      return make_id(slot, meta_[slot] >> kStateBits);
    }
  }

  /// Schedules `fn` after a non-negative delay from now.
  template <class F>
  EventId schedule_after(Duration d, F&& fn) {
    NTCO_EXPECTS(!d.is_negative());
    return schedule_at(now_ + d, std::forward<F>(fn));
  }

  /// Cancels a pending event: it is unlinked from its bucket in O(1), its
  /// handler (and the captures) destroyed and its slot freed, all before
  /// cancel() returns. Returns false if the event already fired, is firing
  /// now (a handler cancelling its own id), was already cancelled, or
  /// never existed; a stale id whose slot has been recycled fails the
  /// generation check.
  bool cancel(EventId id) {
    const std::uint32_t slot = slot_of(id);
    if (slot >= slot_count_) return false;
    const std::uint32_t m = meta_[slot];
    if ((m & kStateMask) != kPending || (m >> kStateBits) != generation_of(id))
      return false;
    unlink(bucket_of(links_[slot].time), slot);
    --pending_;
    const std::uint64_t seq = slot_ref(slot).seq;
    release_slot(slot);
    if (trace_) obs::emit(trace_, now_, "sim.event.cancelled", {{"seq", seq}});
    return true;
  }

  /// Number of events still pending (neither fired nor cancelled).
  [[nodiscard]] std::size_t pending() const { return pending_; }

  /// Ids of all pending events, in scheduling order: the pending slots
  /// sorted by each event's schedule sequence number, so the output order
  /// matches the old sequential-id kernel exactly.
  [[nodiscard]] std::vector<EventId> pending_event_ids() const {
    std::vector<std::pair<std::uint64_t, EventId>> by_seq;
    by_seq.reserve(pending_);
    for (std::uint32_t slot = 0; slot < slot_count_; ++slot)
      if ((meta_[slot] & kStateMask) == kPending)
        by_seq.emplace_back(slot_ref(slot).seq,
                            make_id(slot, meta_[slot] >> kStateBits));
    std::sort(by_seq.begin(), by_seq.end());
    std::vector<EventId> ids;
    ids.reserve(by_seq.size());
    for (const auto& [seq, id] : by_seq) ids.push_back(id);
    return ids;
  }

  /// Fires the earliest pending event. Returns false if none remain.
  bool step() {
    if (pending_ == 0) return false;
    fire_next();
    return true;
  }

  /// Runs until no events remain. Returns the number of events fired.
  std::size_t run() {
    std::size_t n = 0;
    while (step()) ++n;
    return n;
  }

  /// Fires every event with time <= `horizon`, then advances the clock to
  /// `horizon`. Returns the number of events fired. The next event's time
  /// is read without moving the queue's base: raising the base to an
  /// event past the horizon would strand a later schedule_at() in
  /// [horizon, that event) below it.
  std::size_t run_until(TimePoint horizon) {
    NTCO_EXPECTS(horizon >= now_);
    const std::uint64_t h = key_of(horizon);
    std::size_t n = 0;
    for (; pending_ > 0 && min_key(lowest_bucket()) <= h; ++n) fire_next();
    now_ = horizon;
    return n;
  }

 private:
  /// Arena slot: exactly one cache line (48-byte handler buffer + vtable
  /// pointer + seq). `seq` is the global schedule counter value at
  /// schedule time — the value traces report and the order
  /// pending_event_ids() returns — and doubles as the next-free link
  /// while the slot sits on the free list (a free slot has no seq).
  struct alignas(64) Slot {
    Handler fn;
    std::uint64_t seq = 0;
  };
  static_assert(sizeof(Slot) == 64,
                "Slot is sized and aligned to one cache line; if the "
                "InlineHandler capacity changes, revisit this layout");

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;

  /// A pending slot's place in the queue (16 bytes, parallel to the
  /// arena): its event time in microseconds and its neighbours in its
  /// bucket's list (kNoSlot at either end). Meaningless once the slot
  /// leaves the pending state.
  struct Link {
    std::uint64_t time = 0;
    std::uint32_t next = kNoSlot;
    std::uint32_t prev = kNoSlot;
  };

  /// Ends of one bucket's list; read only while the bucket's occupancy
  /// bit is set.
  struct Bucket {
    std::uint32_t head = kNoSlot;
    std::uint32_t tail = kNoSlot;
  };

  /// Frees a firing slot when its handler returns or throws.
  class ReleaseOnExit {
   public:
    ReleaseOnExit(Simulator& sim, std::uint32_t slot)
        : sim_(sim), slot_(slot) {}
    ReleaseOnExit(const ReleaseOnExit&) = delete;
    ReleaseOnExit& operator=(const ReleaseOnExit&) = delete;
    ~ReleaseOnExit() { sim_.release_slot(slot_); }

   private:
    Simulator& sim_;
    std::uint32_t slot_;
  };

  // Per-slot meta word: (generation << 2) | state. The generation counts
  // slot recycles (bumped at release), which invalidates every
  // outstanding EventId minted for a previous occupant — ABA protection,
  // wrapping after 2^30 reuses of one slot, far beyond any simulated
  // workload. Packing state into the same word keeps the cancel check
  // (bounds check + state check + generation check) to a single 4-byte
  // load. A pending slot is linked into a bucket; a firing one is running
  // its handler and is in none.
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::uint32_t kPending = 1;
  static constexpr std::uint32_t kFiring = 2;
  static constexpr std::uint32_t kStateBits = 2;
  static constexpr std::uint32_t kStateMask = (1u << kStateBits) - 1;

  // Chunked arena: 512 slots per chunk. Growth allocates one chunk and
  // never relocates existing slots, so live handlers are move-free for
  // the arena's whole lifetime (a vector-of-Slot would move every live
  // handler through its type-erased relocate on each capacity doubling —
  // the dominant cost of the schedule path for cold arenas), and a firing
  // handler can schedule any number of events from its own slot.
  static constexpr std::uint32_t kChunkShift = 9;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  // Radix queue geometry: 6-bit digits, so one 64-bit occupancy mask
  // covers a level, and 11 levels cover every non-negative 64-bit time.
  static constexpr std::uint32_t kDigitBits = 6;
  static constexpr std::uint32_t kDigits = 1u << kDigitBits;
  static constexpr std::uint32_t kLevels = 11;
  static_assert(kLevels * kDigitBits >= 64 && kLevels <= 32,
                "every time needs a level, and the level mask is 32 bits");

  static_assert(std::is_unsigned_v<EventId>,
                "EventId must be an unsigned integer: it packs "
                "(generation << 32) | slot, and pending_event_ids() sorts "
                "extracted ids");

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Queue key of a time: its microseconds since the origin. Every time
  /// the queue sees is >= now() >= the origin, so the cast is exact.
  static std::uint64_t key_of(TimePoint t) {
    return static_cast<std::uint64_t>(t.since_origin().count_micros());
  }

  [[nodiscard]] Slot& slot_ref(std::uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }
  [[nodiscard]] const Slot& slot_ref(std::uint32_t slot) const {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  std::uint32_t acquire_slot() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t slot = free_head_;
      free_head_ = static_cast<std::uint32_t>(slot_ref(slot).seq);
      return slot;
    }
    NTCO_EXPECTS(slot_count_ < kNoSlot);  // arena is 2^32-1 slots max
    if ((slot_count_ & (kChunkSize - 1)) == 0)
      chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
    meta_.push_back(kFree);
    links_.emplace_back();
    return slot_count_++;
  }

  void release_slot(std::uint32_t slot) {
    meta_[slot] = ((meta_[slot] >> kStateBits) + 1) << kStateBits;  // -> Free
    Slot& s = slot_ref(slot);
    s.fn.reset();
    s.seq = free_head_;  // thread into the free list
    free_head_ = slot;
  }

  /// Bucket index (level * 64 + digit) of time `key` against the base:
  /// the level is the highest digit at which they differ (0 when they
  /// agree above digit 0), the digit is `key`'s digit there. Every
  /// pending event sits in bucket_of(its time), so no slot stores it.
  /// A time in the base's level-0 window skips the width computation: a
  /// handler's near successor is then on the queue a few cycles sooner,
  /// which is what a schedule-then-fire chain waits on.
  [[nodiscard]] std::uint32_t bucket_of(std::uint64_t key) const {
    if ((key ^ base_) < kDigits)
      return static_cast<std::uint32_t>(key & (kDigits - 1));
    const auto level =
        static_cast<std::uint32_t>(std::bit_width((key ^ base_) | 1u) - 1) /
        kDigitBits;
    return level * kDigits +
           static_cast<std::uint32_t>((key >> (level * kDigitBits)) &
                                      (kDigits - 1));
  }

  /// Appends `slot` to bucket `b`'s list, so list order is schedule order.
  void append(std::uint32_t b, std::uint32_t slot) {
    const std::uint32_t level = b / kDigits;
    const std::uint64_t bit = std::uint64_t{1} << (b % kDigits);
    Link& link = links_[slot];
    link.next = kNoSlot;
    if ((occupied_[level] & bit) != 0) {
      Bucket& bucket = buckets_[b];
      link.prev = bucket.tail;
      links_[bucket.tail].next = slot;
      bucket.tail = slot;
    } else {
      occupied_[level] |= bit;
      level_mask_ |= 1u << level;
      link.prev = kNoSlot;
      buckets_[b] = Bucket{slot, slot};
    }
  }

  /// Takes `slot` out of bucket `b`'s list in O(1).
  void unlink(std::uint32_t b, std::uint32_t slot) {
    const Link& link = links_[slot];
    Bucket& bucket = buckets_[b];
    if (link.prev == kNoSlot)
      bucket.head = link.next;
    else
      links_[link.prev].next = link.next;
    if (link.next == kNoSlot)
      bucket.tail = link.prev;
    else
      links_[link.next].prev = link.prev;
    if (bucket.head == kNoSlot) mark_empty(b);
  }

  void mark_empty(std::uint32_t b) {
    const std::uint32_t level = b / kDigits;
    occupied_[level] &= ~(std::uint64_t{1} << (b % kDigits));
    if (occupied_[level] == 0) level_mask_ &= ~(1u << level);
  }

  /// The lowest non-empty bucket, which holds the earliest pending
  /// events. Pre: pending_ > 0.
  [[nodiscard]] std::uint32_t lowest_bucket() const {
    const auto level =
        static_cast<std::uint32_t>(std::countr_zero(level_mask_));
    return level * kDigits +
           static_cast<std::uint32_t>(std::countr_zero(occupied_[level]));
  }

  /// Earliest time in non-empty bucket `b`: a level-0 bucket holds one
  /// time; a higher one is scanned.
  [[nodiscard]] std::uint64_t min_key(std::uint32_t b) const {
    std::uint32_t s = buckets_[b].head;
    std::uint64_t key = links_[s].time;
    if (b >= kDigits)
      for (s = links_[s].next; s != kNoSlot; s = links_[s].next)
        key = std::min(key, links_[s].time);
    return key;
  }

  /// Raises the base to the earliest pending time and moves the lowest
  /// non-empty bucket's events, in list order, down into the levels below
  /// it, which are all empty; the earliest land in a level-0 bucket.
  /// Every other bucket keeps its events, since they agree with the new
  /// base wherever they agreed with the old one. Pre: pending_ > 0 and
  /// level 0 is empty.
  void refill() {
    const std::uint32_t b = lowest_bucket();
    base_ = min_key(b);
    std::uint32_t s = buckets_[b].head;
    mark_empty(b);
    while (s != kNoSlot) {
      const std::uint32_t next = links_[s].next;
      append(bucket_of(links_[s].time), s);
      s = next;
    }
  }

  /// Takes the earliest event (refilling level 0 first if it is empty)
  /// and runs its handler from its arena slot, which stays firing, so
  /// neither reusable nor cancellable, until the handler is done. The
  /// handler may schedule and cancel freely: slots never move, and the
  /// queue no longer holds this event.
  void fire_next() {
    if (occupied_[0] == 0) refill();
    const auto b = static_cast<std::uint32_t>(std::countr_zero(occupied_[0]));
    const std::uint32_t slot = buckets_[b].head;
    unlink(b, slot);
    --pending_;
    now_ = TimePoint::at(
        Duration::micros(static_cast<std::int64_t>(links_[slot].time)));
    meta_[slot] = (meta_[slot] & ~kStateMask) | kFiring;
    const ReleaseOnExit release{*this, slot};
    Slot& s = slot_ref(slot);
    if (trace_) obs::emit(trace_, now_, "sim.event.fired", {{"seq", s.seq}});
    s.fn();
  }

  TimePoint now_;
  /// Queue base: <= now() and <= every pending time; moved only by
  /// refill(), to the earliest pending time.
  std::uint64_t base_ = 0;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t slot_count_ = 0;
  std::uint32_t level_mask_ = 0;  ///< bit L: a bucket of level L is non-empty
  std::array<std::uint64_t, kLevels> occupied_{};  ///< bit d of [L]: (L, d)
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> meta_;
  std::vector<Link> links_;  ///< per slot, parallel to the arena
  obs::TraceSink* trace_ = nullptr;
  std::array<Bucket, kLevels * kDigits> buckets_{};
};

}  // namespace ntco::sim
