#include "ntco/sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "ntco/common/error.hpp"
#include "ntco/common/rng.hpp"
#include "ntco/obs/trace.hpp"

namespace ntco::sim {
namespace {

TEST(Simulator, StartsAtOrigin) {
  Simulator sim;
  EXPECT_EQ(sim.now(), TimePoint::origin());
  EXPECT_EQ(sim.pending(), 0u);
}

TEST(Simulator, FiresInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule_after(Duration::millis(20), [&] { order.push_back(2); });
  sim.schedule_after(Duration::millis(10), [&] { order.push_back(1); });
  sim.schedule_after(Duration::millis(30), [&] { order.push_back(3); });
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().since_origin(), Duration::millis(30));
}

TEST(Simulator, SimultaneousEventsFireFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    sim.schedule_after(Duration::millis(5), [&order, i] {
      order.push_back(i);
    });
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, HandlerCanScheduleMoreEvents) {
  Simulator sim;
  int fired = 0;
  std::function<void()> chain = [&] {
    ++fired;
    if (fired < 5) sim.schedule_after(Duration::millis(1), chain);
  };
  sim.schedule_after(Duration::millis(1), chain);
  EXPECT_EQ(sim.run(), 5u);
  EXPECT_EQ(sim.now().since_origin(), Duration::millis(5));
}

TEST(Simulator, CancelPreventsFiring) {
  Simulator sim;
  bool fired = false;
  const auto id = sim.schedule_after(Duration::millis(1), [&] { fired = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // double-cancel reports failure
  sim.run();
  EXPECT_FALSE(fired);
}

TEST(Simulator, CancelAfterFireReturnsFalse) {
  Simulator sim;
  const auto id = sim.schedule_after(Duration::millis(1), [] {});
  sim.run();
  EXPECT_FALSE(sim.cancel(id));
}

TEST(Simulator, CancelUnknownIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.cancel(12345));
}

TEST(Simulator, PendingExcludesCancelled) {
  Simulator sim;
  sim.schedule_after(Duration::millis(1), [] {});
  const auto id = sim.schedule_after(Duration::millis(2), [] {});
  EXPECT_EQ(sim.pending(), 2u);
  sim.cancel(id);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, PendingEventIdsAreSortedAndExcludeCancelledAndFired) {
  // The ordered view comes from the pending slots, which sit in arena
  // order; it must come out in scheduling order, with cancelled and
  // already-fired events absent.
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 8; ++i)
    ids.push_back(
        sim.schedule_after(Duration::millis(8 - i), [] {}));  // reverse time
  sim.cancel(ids[3]);
  EXPECT_TRUE(sim.step());  // fires ids[7], the earliest
  const auto pending = sim.pending_event_ids();
  const std::vector<EventId> expect{ids[0], ids[1], ids[2],
                                    ids[4], ids[5], ids[6]};
  EXPECT_EQ(pending, expect);
}

TEST(Simulator, RunUntilAdvancesClockToHorizon) {
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::millis(5), [&] { ++fired; });
  sim.schedule_after(Duration::millis(15), [&] { ++fired; });
  const auto horizon = TimePoint::origin() + Duration::millis(10);
  EXPECT_EQ(sim.run_until(horizon), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), horizon);
  EXPECT_EQ(sim.pending(), 1u);
}

TEST(Simulator, RunUntilFiresEventExactlyAtHorizon) {
  Simulator sim;
  bool fired = false;
  sim.schedule_after(Duration::millis(10), [&] { fired = true; });
  sim.run_until(TimePoint::origin() + Duration::millis(10));
  EXPECT_TRUE(fired);
}

TEST(Simulator, RunUntilWithOnlyCancelledEventsIsSafe) {
  Simulator sim;
  const auto id = sim.schedule_after(Duration::millis(1), [] {});
  sim.cancel(id);
  EXPECT_EQ(sim.run_until(TimePoint::origin() + Duration::millis(5)), 0u);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator sim;
  sim.schedule_after(Duration::millis(10), [] {});
  sim.run();
  EXPECT_THROW(sim.schedule_at(TimePoint::origin(), [] {}),
               ContractViolation);
  EXPECT_THROW(sim.schedule_after(-Duration::millis(1), [] {}),
               ContractViolation);
}

// --- Arena kernel: slot reuse, generations, growth -------------------------

TEST(SimulatorArena, StaleIdAfterSlotReuseIsRejected) {
  Simulator sim;
  int fired = 0;
  const EventId a = sim.schedule_after(Duration::millis(1), [&] { ++fired; });
  EXPECT_EQ(sim.run(), 1u);
  // The next schedule recycles a's slot; a's id must stay dead even though
  // the slot is live again under a fresh generation.
  const EventId b = sim.schedule_after(Duration::millis(1), [&] { ++fired; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(sim.cancel(a));
  EXPECT_EQ(sim.pending(), 1u);  // b untouched by the stale cancel
  EXPECT_TRUE(sim.cancel(b));
  EXPECT_EQ(sim.run(), 0u);
  EXPECT_EQ(fired, 1);
}

TEST(SimulatorArena, StaleIdAfterCancelAndDrainIsRejected) {
  Simulator sim;
  int fired = 0;
  const EventId a = sim.schedule_after(Duration::millis(2), [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_FALSE(sim.cancel(a));  // double-cancel: the slot is already free
  EXPECT_EQ(sim.run(), 0u);     // the cancelled event left nothing to fire
  const EventId b = sim.schedule_after(Duration::millis(2), [&] { ++fired; });
  EXPECT_FALSE(sim.cancel(a));  // recycled slot, bumped generation
  EXPECT_TRUE(sim.cancel(b));
  EXPECT_EQ(fired, 0);
}

TEST(SimulatorArena, CancelFreesSlotAtOnce) {
  // cancel() frees the slot before it returns, long before the cancelled
  // event's time, so the very next schedule reuses the slot under a new
  // generation and the old id stays dead.
  Simulator sim;
  int fired = 0;
  sim.schedule_after(Duration::millis(1), [&] { ++fired; });
  const EventId a = sim.schedule_after(Duration::millis(5), [&] { ++fired; });
  sim.schedule_after(Duration::millis(9), [&] { ++fired; });
  EXPECT_TRUE(sim.cancel(a));
  EXPECT_EQ(sim.pending(), 2u);
  const EventId b = sim.schedule_after(Duration::millis(3), [&] { ++fired; });
  EXPECT_EQ(b & 0xFFFFFFFFu, a & 0xFFFFFFFFu);  // same slot
  EXPECT_NE(b >> 32, a >> 32);                  // new generation
  EXPECT_FALSE(sim.cancel(a));
  EXPECT_EQ(sim.pending(), 3u);
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(fired, 3);
}

TEST(SimulatorArena, GrowthAcrossChunksPreservesFifoOrder) {
  // 1300 events cross two 512-slot chunk boundaries; order and count must
  // be unaffected by arena growth, and recycled slots must serve a second
  // wave correctly.
  Simulator sim;
  constexpr int kN = 1300;
  std::vector<int> order;
  order.reserve(kN);
  for (int i = 0; i < kN; ++i)
    sim.schedule_after(Duration::micros(i), [&order, i] {
      order.push_back(i);
    });
  EXPECT_EQ(sim.pending(), static_cast<std::size_t>(kN));
  EXPECT_EQ(sim.run(), static_cast<std::size_t>(kN));
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kN));
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  order.clear();
  for (int i = 0; i < kN; ++i)  // second wave through the free list
    sim.schedule_after(Duration::micros(i), [&order, i] {
      order.push_back(i);
    });
  EXPECT_EQ(sim.run(), static_cast<std::size_t>(kN));
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

TEST(SimulatorArena, CancelDestroysHandlerCapturesEagerly) {
  Simulator sim;
  auto token = std::make_shared<int>(7);
  sim.schedule_after(Duration::millis(1), [token] { (void)*token; });
  const EventId id = sim.schedule_after(Duration::millis(2), [token] {
    (void)*token;
  });
  EXPECT_EQ(token.use_count(), 3);
  EXPECT_TRUE(sim.cancel(id));
  // The cancelled handler's capture must be released at cancel, not when
  // the cancelled event's time comes.
  EXPECT_EQ(token.use_count(), 2);
  sim.run();
  EXPECT_EQ(token.use_count(), 1);
}

TEST(SimulatorArena, MoveOnlyCapturesAreSchedulable) {
  // std::function rejected move-only captures; InlineHandler accepts them.
  Simulator sim;
  auto payload = std::make_unique<int>(41);
  int got = 0;
  sim.schedule_after(Duration::millis(1),
                     [p = std::move(payload), &got] { got = *p + 1; });
  EXPECT_EQ(sim.run(), 1u);
  EXPECT_EQ(got, 42);
}

TEST(SimulatorArena, EveryHandlerFormSchedulesAndARefusedOneTakesNoSlot) {
  // A callable is built in its slot; a Handler moves in; an lvalue copies.
  Simulator sim;
  std::vector<int> fired;
  sim.schedule_after(Duration::micros(1), [&fired] { fired.push_back(1); });
  sim.schedule_after(Duration::micros(2),
                     InlineHandler([&fired] { fired.push_back(2); }));
  const auto lvalue = [&fired] { fired.push_back(3); };
  sim.schedule_after(Duration::micros(3), lvalue);
  const std::function<void()> wrapped = [&fired] { fired.push_back(4); };
  sim.schedule_after(Duration::micros(4), wrapped);
  EXPECT_EQ(sim.run(), 4u);
  EXPECT_EQ(fired, (std::vector<int>{1, 2, 3, 4}));

  // An empty handler, and a callable whose copy throws, are refused
  // before a slot is taken: the next event reuses the slot the last one
  // freed, under the generation that slot's release gave it.
  struct ThrowsOnCopy {
    ThrowsOnCopy() = default;
    ThrowsOnCopy(const ThrowsOnCopy&) { throw std::runtime_error("copy"); }
    ThrowsOnCopy(ThrowsOnCopy&&) noexcept = default;
    void operator()() const {}
  };
  const ThrowsOnCopy throws;
  const EventId before = sim.schedule_after(Duration::micros(1), [] {});
  ASSERT_TRUE(sim.cancel(before));
  EXPECT_THROW(sim.schedule_after(Duration::micros(1), InlineHandler{}),
               ContractViolation);
  EXPECT_THROW(sim.schedule_at(sim.now(), nullptr), ContractViolation);
  EXPECT_THROW(sim.schedule_at(sim.now(), throws), std::runtime_error);
  EXPECT_EQ(sim.pending(), 0u);
  const EventId after = sim.schedule_after(Duration::micros(1), [] {});
  EXPECT_EQ(after & 0xFFFFFFFFu, before & 0xFFFFFFFFu);  // same slot
  EXPECT_EQ(after >> 32, (before >> 32) + 1);            // next generation
  EXPECT_EQ(sim.run(), 1u);
}

// --- Randomized interleaving vs the pre-arena reference kernel -------------

/// Verbatim behavioural copy of the hash-set + priority_queue kernel this
/// kernel replaced. It is the executable specification for the randomized
/// equivalence test below: same FIFO tie-break, same cancel results, and
/// byte-identical trace emission (trace "seq" is the schedule counter,
/// which the reference also uses as its EventId). It drops cancelled
/// entries lazily where the arena kernel removes them at once; no caller
/// can tell the two apart except by the opaque id values.
class ReferenceSimulator {
 public:
  using Handler = std::function<void()>;

  [[nodiscard]] TimePoint now() const { return now_; }
  void set_trace_sink(obs::TraceSink* sink) { trace_ = sink; }

  std::uint64_t schedule_at(TimePoint t, Handler fn) {
    const std::uint64_t id = next_seq_++;
    queue_.push(Event{t, id, std::move(fn)});
    pending_ids_.insert(id);
    if (trace_)
      obs::emit(trace_, now_, "sim.event.scheduled", {{"seq", id}, {"at", t}});
    return id;
  }

  std::uint64_t schedule_after(Duration d, Handler fn) {
    return schedule_at(now_ + d, std::move(fn));
  }

  bool cancel(std::uint64_t id) {
    if (pending_ids_.erase(id) == 0) return false;
    cancelled_.insert(id);
    if (trace_) obs::emit(trace_, now_, "sim.event.cancelled", {{"seq", id}});
    return true;
  }

  [[nodiscard]] std::size_t pending() const { return pending_ids_.size(); }

  [[nodiscard]] std::vector<std::uint64_t> pending_event_ids() const {
    return std::vector<std::uint64_t>(pending_ids_.begin(),
                                      pending_ids_.end());  // ascending
  }

  bool step() {
    while (!queue_.empty()) {
      const Event& top = queue_.top();
      if (cancelled_.erase(top.seq) > 0) {
        queue_.pop();
        continue;
      }
      now_ = top.time;
      const std::uint64_t seq = top.seq;
      Handler fn = std::move(const_cast<Event&>(top).fn);
      queue_.pop();
      pending_ids_.erase(seq);
      if (trace_) obs::emit(trace_, now_, "sim.event.fired", {{"seq", seq}});
      fn();
      return true;
    }
    return false;
  }

  std::size_t run() {
    std::size_t n = 0;
    while (step()) ++n;
    return n;
  }

  std::size_t run_until(TimePoint horizon) {
    std::size_t n = 0;
    for (;;) {
      drop_cancelled_head();
      if (queue_.empty() || queue_.top().time > horizon) break;
      if (step()) ++n;
    }
    now_ = horizon;
    return n;
  }

 private:
  struct Event {
    TimePoint time;
    std::uint64_t seq;
    Handler fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void drop_cancelled_head() {
    while (!queue_.empty() && cancelled_.erase(queue_.top().seq) > 0)
      queue_.pop();
  }

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
  std::set<std::uint64_t> cancelled_;
  std::set<std::uint64_t> pending_ids_;
  obs::TraceSink* trace_ = nullptr;
};

/// Draws one delay or run_until step of a randomized history.
using DelayDraw = Duration (*)(Rng&);

/// 0–300 µs: dense, nearby times, which exercise only the queue's two
/// lowest digit levels.
Duration dense_delay(Rng& r) { return Duration::micros(r.uniform_int(0, 300)); }

/// Log-uniform over 0 to 2^42 µs: far-future events wait in high-level
/// buckets while near ones fire, and refills cascade across many levels.
Duration multiscale_delay(Rng& r) {
  return Duration::micros(
      static_cast<std::int64_t>(std::exp2(r.uniform(0.0, 42.0))) - 1);
}

/// One kernel driven through the randomized history, with what its
/// handlers did. The arena kernel and the reference each get one. A handler
/// acts only through its own Driven and draws its choices from a stream of
/// its label, so both kernels see the same schedule/cancel/fire history as
/// long as they fire events in the same order.
template <class Kernel, class Id>
struct Driven {
  Driven(std::uint64_t s, DelayDraw d) : seed(s), draw(d) {
    kernel.set_trace_sink(&trace);
  }
  Driven(const Driven&) = delete;  // handlers hold `this`
  Driven& operator=(const Driven&) = delete;

  /// Schedules the event with the next label.
  void schedule(Duration d) {
    const std::uint64_t lbl = ids.size();
    if (d >= Duration::micros(std::int64_t{1} << 24)) ++far_delays;
    at.push_back(kernel.now() + d);
    ++pending_at[at.back()];
    ids.push_back(kernel.schedule_after(d, [this, lbl] { fire(lbl); }));
  }

  /// Cancels the event with label `lbl`, counting a hit on an event that
  /// shares its time with another pending one.
  bool cancel(std::size_t lbl) {
    const bool hit = kernel.cancel(ids[lbl]);
    if (hit) {
      if (pending_at[at[lbl]] > 1) ++tied_cancels;
      unpend(at[lbl]);
    }
    return hit;
  }

  /// Earliest pending time. Pre: some event is pending.
  [[nodiscard]] TimePoint next_pending() const {
    return pending_at.begin()->first;
  }

  void fire(std::uint64_t lbl) {
    fired.push_back(lbl);
    last_fired_at = kernel.now();
    unpend(at[lbl]);
    // A firing event is no longer pending: its own id cannot cancel it.
    EXPECT_FALSE(kernel.cancel(ids[lbl])) << "label " << lbl;
    Rng r = Rng::stream(seed, lbl);
    if (!burst_done) {
      // The first event to fire schedules more events than one 512-slot
      // chunk holds while the arena has at most one chunk, so the arena
      // grows while this handler runs from its slot.
      burst_done = true;
      EXPECT_LE(ids.size(), 512u);
      for (int i = 0; i < 600; ++i) schedule(draw(r));
      return;
    }
    if (r.uniform(0.0, 1.0) < 0.3) schedule(Duration::zero());
    if (r.uniform(0.0, 1.0) < 0.3) schedule(draw(r));
    if (r.uniform(0.0, 1.0) < 0.4) {
      // A sibling among the latest labels, often still pending.
      const std::int64_t newest = static_cast<std::int64_t>(ids.size()) - 1;
      const auto k = static_cast<std::size_t>(
          r.uniform_int(std::max<std::int64_t>(0, newest - 15), newest));
      handler_cancels.push_back(cancel(k));
    }
  }

  void unpend(TimePoint t) {
    const auto it = pending_at.find(t);
    if (--it->second == 0) pending_at.erase(it);
  }

  Kernel kernel;
  obs::JsonlTraceWriter trace;
  std::uint64_t seed;
  DelayDraw draw;
  std::vector<Id> ids;                // by label, fired and cancelled too
  std::vector<TimePoint> at;          // by label: the time it was due
  std::map<TimePoint, int> pending_at;  // pending events per time
  std::vector<std::uint64_t> fired;   // labels, in fire order
  std::vector<bool> handler_cancels;  // what the handlers' cancels returned
  TimePoint last_fired_at;
  bool burst_done = false;
  int far_delays = 0;    // delays >= 2^24 µs
  int tied_cancels = 0;  // cancel hits on an event sharing its time
};

/// How often the histories reached cases that dense delays never do.
struct Coverage {
  int far_delays = 0;  ///< delays >= 2^24 µs
  /// run_until horizons strictly between the last fired event and the
  /// next pending one, followed by a schedule below that next event: the
  /// case in which a horizon that moved the queue's base would strand the
  /// new event.
  int straddled_horizons = 0;
  int tied_cancels = 0;  ///< cancel hits on an event sharing its time
};

/// Runs one seeded history on the arena kernel and the reference and
/// requires the same fire order, cancel results, pending ids and trace
/// bytes.
void expect_matches_reference(std::uint64_t seed, DelayDraw draw,
                              Coverage& cov) {
  Driven<Simulator, EventId> sim(seed, draw);
  Driven<ReferenceSimulator, std::uint64_t> ref(seed, draw);
  // The next pending time after a straddled horizon; the origin when the
  // last run_until did not straddle, since no schedule lands below it.
  TimePoint next_after_horizon;

  Rng rng(seed);
  // Ids stay in the log after firing, so cancels regularly target
  // already-fired and slot-recycled ids — the stale-id surface.
  for (int op = 0; op < 3000; ++op) {
    ASSERT_EQ(sim.ids.size(), ref.ids.size());
    const double r = rng.uniform(0.0, 1.0);
    if (r < 0.55) {
      const Duration d = draw(rng);
      if (sim.kernel.now() + d < next_after_horizon) ++cov.straddled_horizons;
      next_after_horizon = TimePoint::origin();
      sim.schedule(d);
      ref.schedule(d);
    } else if (r < 0.80 && !sim.ids.empty()) {
      const auto k = static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(sim.ids.size()) - 1));
      ASSERT_EQ(sim.cancel(k), ref.cancel(k));
    } else if (r < 0.95) {
      const TimePoint h = sim.kernel.now() + draw(rng);
      ASSERT_EQ(sim.kernel.run_until(h), ref.kernel.run_until(h));
      ASSERT_EQ(sim.kernel.now(), ref.kernel.now());
      next_after_horizon = TimePoint::origin();
      if (!sim.pending_at.empty() && sim.last_fired_at < h &&
          h < sim.next_pending())
        next_after_horizon = sim.next_pending();
    } else {
      ASSERT_EQ(sim.kernel.pending(), ref.kernel.pending());
      // Reference ids are schedule-ordered, so mapping the arena ids
      // through the label log must reproduce them exactly.
      std::map<EventId, std::size_t> label_of;
      for (std::size_t l = 0; l < sim.ids.size(); ++l)
        label_of.emplace(sim.ids[l], l);
      ASSERT_EQ(label_of.size(), sim.ids.size());  // ids are never reused
      std::vector<std::uint64_t> mapped;
      for (const EventId id : sim.kernel.pending_event_ids())
        mapped.push_back(ref.ids[label_of.at(id)]);
      ASSERT_EQ(mapped, ref.kernel.pending_event_ids());
    }
  }
  ASSERT_EQ(sim.kernel.run(), ref.kernel.run());
  ASSERT_EQ(sim.fired, ref.fired);
  ASSERT_EQ(sim.handler_cancels, ref.handler_cancels);
  ASSERT_EQ(sim.trace.str(), ref.trace.str());
  // The handlers did act: the burst ran, and their sibling cancels both
  // hit pending events and missed fired or cancelled ones.
  EXPECT_TRUE(sim.burst_done);
  const auto hits = std::count(sim.handler_cancels.begin(),
                               sim.handler_cancels.end(), true);
  EXPECT_GT(hits, 0);
  EXPECT_LT(hits, static_cast<std::ptrdiff_t>(sim.handler_cancels.size()));
  cov.far_delays += sim.far_delays;
  cov.tied_cancels += sim.tied_cancels;
}

TEST(SimulatorRandomized, MatchesReferenceKernelAndTraceBytes) {
  Coverage dense;
  for (const std::uint64_t seed : {1ULL, 42ULL, 20260805ULL}) {
    SCOPED_TRACE(seed);
    expect_matches_reference(seed, dense_delay, dense);
    if (HasFatalFailure()) return;
  }
  // Multi-scale delays reach the high digit levels, which dense times
  // never do. Each case below must have occurred at least once.
  Coverage multiscale;
  for (const std::uint64_t seed : {1ULL, 7ULL, 20261017ULL}) {
    SCOPED_TRACE(seed);
    expect_matches_reference(seed, multiscale_delay, multiscale);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(multiscale.far_delays, 0);
  EXPECT_GT(multiscale.straddled_horizons, 0);
  EXPECT_GT(multiscale.tied_cancels, 0);
}

}  // namespace
}  // namespace ntco::sim
