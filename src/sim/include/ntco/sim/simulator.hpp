#pragma once

#include <algorithm>
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
///  - The ready queue is an implicit 4-ary min-heap of 16-byte
///    (time, seq-low, slot) nodes ordered by (time, seq), holding exactly
///    the pending events. A parallel 4-byte word per slot records where
///    its node sits in the heap; every sift keeps it current.
///
/// An EventId packs (generation << 32) | slot, so cancel() finds its event
/// in O(1), no hash sets, and a stale id from a recycled slot is rejected
/// by its generation mismatch. Cancellation is eager: cancel() takes the
/// node out of the heap in O(log n), destroys the handler and frees the
/// slot at once, so a cancelled timer costs nothing afterwards. An event
/// fires in place: its node is popped, its slot is marked firing (a
/// cancel() of its own id returns false), the handler runs from the arena
/// slot, and the slot is released when the handler returns or throws.
/// Handlers are InlineHandler, a 48-byte small-buffer callable; a larger
/// capture set does not compile, so scheduling never touches the
/// allocator once the arena and the heap have grown.
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
  [[nodiscard]] obs::TraceSink* trace_sink() const { return trace_; }

  /// Schedules `fn` at absolute time `t`. Pre: t >= now().
  EventId schedule_at(TimePoint t, Handler fn) {
    NTCO_EXPECTS(t >= now_);
    NTCO_EXPECTS(fn != nullptr);
    const std::uint32_t slot = acquire_slot();
    Slot& s = slot_ref(slot);
    const std::uint64_t seq = next_seq_++;
    s.seq = seq;
    s.fn = std::move(fn);
    meta_[slot] |= kPending;  // state was Free (0); generation unchanged
    const HeapNode node{t, static_cast<std::uint32_t>(seq), slot};
    heap_.push_back(node);
    sift_up(heap_.size() - 1, node);
    if (trace_)
      obs::emit(trace_, now_, "sim.event.scheduled", {{"seq", seq}, {"at", t}});
    return make_id(slot, meta_[slot] >> kStateBits);
  }

  /// Schedules `fn` after a non-negative delay from now.
  EventId schedule_after(Duration d, Handler fn) {
    NTCO_EXPECTS(!d.is_negative());
    return schedule_at(now_ + d, std::move(fn));
  }

  /// Cancels a pending event: its heap node is removed in O(log n), its
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
    heap_erase(heap_pos_[slot]);
    const std::uint64_t seq = slot_ref(slot).seq;
    release_slot(slot);
    if (trace_) obs::emit(trace_, now_, "sim.event.cancelled", {{"seq", seq}});
    return true;
  }

  /// Number of events still pending (neither fired nor cancelled).
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }

  /// Ids of all pending events, in scheduling order: the heap's nodes
  /// sorted by each event's schedule sequence number, so the output order
  /// matches the old sequential-id kernel exactly.
  [[nodiscard]] std::vector<EventId> pending_event_ids() const {
    std::vector<std::pair<std::uint64_t, EventId>> by_seq;
    by_seq.reserve(heap_.size());
    for (const HeapNode& node : heap_)
      by_seq.emplace_back(slot_ref(node.slot).seq,
                          make_id(node.slot, meta_[node.slot] >> kStateBits));
    std::sort(by_seq.begin(), by_seq.end());
    std::vector<EventId> ids;
    ids.reserve(by_seq.size());
    for (const auto& [seq, id] : by_seq) ids.push_back(id);
    return ids;
  }

  /// Fires the earliest pending event. Returns false if none remain.
  bool step() {
    if (heap_.empty()) return false;
    fire_top();
    return true;
  }

  /// Runs until no events remain. Returns the number of events fired.
  std::size_t run() {
    std::size_t n = 0;
    while (step()) ++n;
    return n;
  }

  /// Fires every event with time <= `horizon`, then advances the clock to
  /// `horizon`. Returns the number of events fired.
  std::size_t run_until(TimePoint horizon) {
    NTCO_EXPECTS(horizon >= now_);
    std::size_t n = 0;
    for (; !heap_.empty() && heap_[0].time <= horizon; ++n) fire_top();
    now_ = horizon;
    return n;
  }

 private:
  /// Arena slot: exactly one cache line (48-byte handler buffer + vtable
  /// pointer + seq). `seq` is the global schedule counter value at
  /// schedule time — the FIFO tie-break and the value traces report —
  /// and doubles as the next-free link while the slot sits on the free
  /// list (a free slot has no seq).
  struct alignas(64) Slot {
    Handler fn;
    std::uint64_t seq = 0;
  };
  static_assert(sizeof(Slot) == 64,
                "Slot is sized and aligned to one cache line; if the "
                "InlineHandler capacity changes, revisit this layout");

  /// Ready-queue node (16 bytes). Carries the time and the low 32 bits of
  /// the schedule seq, so ordering never touches the arena; `slot`
  /// locates the handler on pop.
  struct HeapNode {
    TimePoint time;
    std::uint32_t seq_lo;
    std::uint32_t slot;
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
  // load. A pending slot has a heap node; a firing one is running its
  // handler and has none.
  static constexpr std::uint32_t kFree = 0;
  static constexpr std::uint32_t kPending = 1;
  static constexpr std::uint32_t kFiring = 2;
  static constexpr std::uint32_t kStateBits = 2;
  static constexpr std::uint32_t kStateMask = (1u << kStateBits) - 1;

  static constexpr std::uint32_t kNoSlot = 0xFFFFFFFFu;
  // Chunked arena: 512 slots per chunk. Growth allocates one chunk and
  // never relocates existing slots, so live handlers are move-free for
  // the arena's whole lifetime (a vector-of-Slot would move every live
  // handler through its type-erased relocate on each capacity doubling —
  // the dominant cost of the schedule path for cold arenas), and a firing
  // handler can schedule any number of events from its own slot.
  static constexpr std::uint32_t kChunkShift = 9;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  static_assert(std::is_unsigned_v<EventId>,
                "EventId must be an unsigned integer: it packs "
                "(generation << 32) | slot, pending_event_ids() sorts "
                "extracted ids, and the (time, seq) event ordering relies "
                "on well-defined unsigned comparison");

  static EventId make_id(std::uint32_t slot, std::uint32_t generation) {
    return (static_cast<EventId>(generation) << 32) | slot;
  }
  static std::uint32_t slot_of(EventId id) {
    return static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  }
  static std::uint32_t generation_of(EventId id) {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Heap order: (time, seq). Nodes carry only the low 32 bits of seq, so
  /// the tie-break is the wraparound-aware sequence comparison (RFC 1982
  /// style): exact as long as fewer than 2^31 events share one timestamp,
  /// which memory rules out long before it could happen.
  static bool earlier(const HeapNode& a, const HeapNode& b) {
    if (a.time != b.time) return a.time < b.time;
    return static_cast<std::int32_t>(a.seq_lo - b.seq_lo) < 0;
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
    heap_pos_.push_back(0);
    return slot_count_++;
  }

  void release_slot(std::uint32_t slot) {
    meta_[slot] = ((meta_[slot] >> kStateBits) + 1) << kStateBits;  // -> Free
    Slot& s = slot_ref(slot);
    s.fn.reset();
    s.seq = free_head_;  // thread into the free list
    free_head_ = slot;
  }

  /// Pops the earliest event and runs its handler from its arena slot,
  /// which stays firing, so neither reusable nor cancellable, until the
  /// handler is done. The handler may schedule and cancel freely: slots
  /// never move, and the heap no longer holds this event.
  void fire_top() {
    const HeapNode top = heap_[0];
    heap_erase(0);
    now_ = top.time;
    meta_[top.slot] = (meta_[top.slot] & ~kStateMask) | kFiring;
    const ReleaseOnExit release{*this, top.slot};
    Slot& s = slot_ref(top.slot);
    if (trace_) obs::emit(trace_, now_, "sim.event.fired", {{"seq", s.seq}});
    s.fn();
  }

  // 4-ary implicit heap: shallower than binary (log4 vs log2 levels), and
  // the 4-child minimum scan stays within one cache line of HeapNodes —
  // measurably faster for the sift-down-heavy pop pattern here. Both sifts
  // shift nodes into the hole and place the moving node once at the end,
  // instead of swapping at every level (half the data movement). Every
  // placement records the node's index in heap_pos_, which is what lets
  // cancel() find a node without searching.
  void place(std::size_t i, const HeapNode& node) {
    heap_[i] = node;
    heap_pos_[node.slot] = static_cast<std::uint32_t>(i);
  }

  void sift_up(std::size_t i, const HeapNode& node) {
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (!earlier(node, heap_[parent])) break;
      place(i, heap_[parent]);
      i = parent;
    }
    place(i, node);
  }

  void sift_down(std::size_t i, const HeapNode& node) {
    const std::size_t n = heap_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = std::min(first + 4, n);
      for (std::size_t c = first + 1; c < last; ++c)
        if (earlier(heap_[c], heap_[best])) best = c;
      if (!earlier(heap_[best], node)) break;
      place(i, heap_[best]);
      i = best;
    }
    place(i, node);
  }

  /// Removes the node at index `i`: the last node fills the hole and
  /// sifts up or down, whichever restores the order there.
  void heap_erase(std::size_t i) {
    const HeapNode last = heap_.back();
    heap_.pop_back();
    if (i == heap_.size()) return;
    if (i > 0 && earlier(last, heap_[(i - 1) / 4]))
      sift_up(i, last);
    else
      sift_down(i, last);
  }

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint32_t free_head_ = kNoSlot;
  std::uint32_t slot_count_ = 0;
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> meta_;
  std::vector<std::uint32_t> heap_pos_;  // per pending slot: its heap index
  std::vector<HeapNode> heap_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace ntco::sim
