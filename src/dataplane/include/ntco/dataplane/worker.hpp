#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>

#include "ntco/common/rng.hpp"
#include "ntco/dataplane/ring.hpp"

/// \file worker.hpp
/// Per-core worker state and the worker loop — the dataplane's hot path.
///
/// Each worker owns one cache-line-aligned WorkerState: its private SPSC
/// request ring (the orchestrator is the only producer, the worker the only
/// consumer), a worker-keyed Rng substream (idle-backoff jitter only —
/// never results; shard results draw from the *shard*-keyed substream the
/// body materialises per task, so they cannot depend on which core ran
/// them), and a local metrics shard (items/poll counters the worker alone
/// writes). Workers therefore never share a mutable cache line; the only
/// cross-core traffic in steady state is the rings themselves.
///
/// The loop is mode-driven (Parked / Active / Stopped, an NFVCore-style
/// `core_state`): an Active worker pops Tasks — plain shard indices stamped
/// with their epoch, never closures — runs the run-wide body function
/// pointer, and pushes a Completion into the shared MPSC completion ring.
/// That push's release store is the happens-before edge publishing
/// everything the shard body wrote (its result slot, its trace shard) to
/// the reducer that pops the completion. A Parked worker sleeps on the
/// engine's park condvar (off the hot path by definition); the
/// CoreController acquires and releases workers between epochs only, so a
/// parked worker's request ring is always empty.
///
/// Nothing here allocates per shard: the rings are sized at construction
/// (tests/allocation_count_test.cpp pins Engine::run's allocation count
/// flat in the shard count).

namespace ntco::dataplane {

/// One unit of work: the shard to run, stamped with the epoch that owns it.
/// Workers process exactly the tasks stamped for the epoch being drained —
/// the orchestrator never dispatches epoch k+1 before epoch k's barrier.
struct Task {
  std::uint64_t shard = 0;
  std::uint64_t epoch = 0;
};

/// Completion record a worker publishes after running a task.
struct Completion {
  std::uint64_t shard = 0;
  std::uint32_t worker = 0;
  std::uint32_t epoch_lo = 0;  ///< low 32 bits of the task's epoch stamp
};

/// Worker lifecycle (NFVCore-style core_state). Transitions are made by
/// the orchestrator under the park mutex; workers only read.
enum class WorkerMode : int { Parked = 0, Active = 1, Stopped = 2 };

/// The run-wide callback a worker invokes per task. A raw function pointer
/// plus context — never a std::function — so dispatch stays allocation-free.
using ShardFn = void (*)(void* ctx, std::size_t shard);

/// State shared by every worker of one engine: the body to run, the MPSC
/// completion ring, and the park channel.
struct EngineShared {
  explicit EngineShared(std::size_t completion_capacity)
      : completions(completion_capacity) {}

  ShardFn body = nullptr;
  void* body_ctx = nullptr;
  MpscRing<Completion> completions;
  std::mutex park_mu;
  std::condition_variable park_cv;
};

/// Per-core state. alignas keeps neighbouring workers off each other's
/// cache lines; every field is written by exactly one role (worker or
/// orchestrator), and the cross-thread-read counters are relaxed atomics.
struct alignas(dataplane_detail::kCacheLine) WorkerState {
  WorkerState(std::uint32_t worker_index, std::size_t ring_capacity,
              std::uint64_t seed)
      : index(worker_index),
        requests(ring_capacity),
        rng(Rng::stream(seed, worker_index)) {}

  const std::uint32_t index;
  Ring<Task> requests;  ///< orchestrator -> this worker (SPSC)
  std::atomic<int> mode{static_cast<int>(WorkerMode::Parked)};

  // Local metrics shard: the owning worker is the only writer.
  std::atomic<std::uint64_t> items{0};       ///< tasks completed (lifetime)
  std::atomic<std::uint64_t> idle_polls{0};  ///< empty-ring polls (lifetime)

  Rng rng;  ///< worker-keyed substream: backoff jitter only, never results
};

/// One architectural pause — the polite spin primitive for ring waits.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// The worker loop. Runs until mode becomes Stopped. `w` must be owned by
/// exactly this thread for the loop's lifetime.
inline void worker_loop(WorkerState& w, EngineShared& sh) {
  constexpr std::uint32_t kSpinsBeforeYield = 64;
  std::uint32_t backoff = 0;
  for (;;) {
    const auto mode =
        static_cast<WorkerMode>(w.mode.load(std::memory_order_acquire));
    if (mode == WorkerMode::Stopped) return;
    if (mode == WorkerMode::Parked) {
      std::unique_lock<std::mutex> lock(sh.park_mu);
      sh.park_cv.wait(lock, [&w] {
        return w.mode.load(std::memory_order_acquire) !=
               static_cast<int>(WorkerMode::Parked);
      });
      backoff = 0;
      continue;
    }
    Task t;
    if (w.requests.try_pop(t)) {
      sh.body(sh.body_ctx, static_cast<std::size_t>(t.shard));
      w.items.fetch_add(1, std::memory_order_relaxed);
      const Completion done{t.shard, w.index,
                            static_cast<std::uint32_t>(t.epoch)};
      // The completion ring is sized to hold a whole epoch, so this push
      // succeeds on the first try in steady state; the spin is a safety
      // net, not a wait loop.
      while (!sh.completions.try_push(done)) cpu_relax();
      backoff = 0;
    } else {
      w.idle_polls.fetch_add(1, std::memory_order_relaxed);
      if (backoff < kSpinsBeforeYield) {
        ++backoff;
        // Jittered bounded spin (worker-keyed substream) so siblings do
        // not hammer the park/ring lines in lockstep.
        const std::int64_t spins =
            w.rng.uniform_int(1, static_cast<std::int64_t>(backoff));
        for (std::int64_t i = 0; i < spins; ++i) cpu_relax();
      } else {
        std::this_thread::yield();
      }
    }
  }
}

}  // namespace ntco::dataplane
