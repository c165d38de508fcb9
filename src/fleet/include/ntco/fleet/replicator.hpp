#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "ntco/common/contracts.hpp"
#include "ntco/common/rng.hpp"
#include "ntco/dataplane/engine.hpp"

/// \file replicator.hpp
/// Deterministic sharded replica execution — the fleet engine's core.
///
/// A replica is one independent simulation (its own sim::Simulator, its
/// own platforms, its own Rng substream). The Replicator dispatches N
/// replicas through the serving dataplane — per-worker lock-free SPSC
/// request rings, an MPSC completion ring, and a fixed-width epoch barrier
/// (dataplane::Engine) — and returns their results *in shard order*, so
/// any reduction the caller performs is a sequential left fold over a
/// thread-count-independent sequence: merged output is byte-identical
/// whether the fleet ran on 1 worker or 16. Three rules make that hold:
///
///  1. Randomness is keyed by shard, never by thread: shard s draws from
///     Rng::stream(seed, s) regardless of which worker executes it.
///  2. Results land in per-shard slots; nothing is reduced concurrently.
///  3. Epoch membership is a pure function of the shard index (fixed
///     epoch width), so the engine's dynamic worker scaling can only move
///     *where* a shard runs, never where its result lands or when it is
///     merged relative to its neighbours.
///
/// Replica bodies must not share mutable state (each owns its world); the
/// completion ring's release/acquire pair provides the happens-before edge
/// between a shard's writes and the reducing thread's reads.

namespace ntco::fleet {

/// Worker count the fleet uses when none is given explicitly: the
/// NTCO_THREADS environment variable when set to a positive integer,
/// otherwise std::thread::hardware_concurrency() (minimum 1).
[[nodiscard]] std::size_t default_thread_count();

/// Everything a replica body receives. `rng` is the shard's private
/// substream — a pure function of (seed, shard), so results cannot depend
/// on NTCO_THREADS.
struct ShardContext {
  std::size_t shard = 0;
  std::size_t shard_count = 1;
  Rng rng{0};
};

/// Runs shard bodies across the dataplane engine and reduces in shard
/// order.
class Replicator {
 public:
  /// `threads == 0` means default_thread_count() (NTCO_THREADS override,
  /// else hardware concurrency).
  explicit Replicator(std::uint64_t seed, std::size_t threads = 0)
      : seed_(seed),
        threads_(threads == 0 ? default_thread_count() : threads) {}

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// Dataplane knobs for the parallel path (epoch width, ring capacity,
  /// controller policy). The worker count is always min(threads, shards)
  /// regardless of `cfg.workers`. Epoch width shapes performance and
  /// epoch_done granularity only — results are identical for any width.
  void set_engine_config(const dataplane::EngineConfig& cfg) {
    engine_cfg_ = cfg;
  }
  [[nodiscard]] const dataplane::EngineConfig& engine_config() const {
    return engine_cfg_;
  }

  /// What the dataplane measured during the last parallel map/reduce:
  /// epochs, per-core items and liveness, scaling events, ring occupancy.
  /// Zeroed after a serial run (threads==1 or shards==1 bypasses the
  /// engine). Timing-dependent — report it, never branch on it in-sim.
  [[nodiscard]] const dataplane::EngineRunStats& last_dataplane_run() const {
    return last_run_;
  }

  /// Runs `shards` replicas of `body(ShardContext&)` and returns their
  /// results in shard order. If any body throws, the first exception in
  /// shard order is rethrown after all shards finished (so no replica is
  /// abandoned mid-run).
  template <class Fn>
  [[nodiscard]] auto map(std::size_t shards, Fn&& body)
      -> std::vector<std::decay_t<std::invoke_result_t<Fn&, ShardContext&>>> {
    using R = std::decay_t<std::invoke_result_t<Fn&, ShardContext&>>;
    NTCO_EXPECTS(shards > 0);
    std::vector<std::optional<R>> slots(shards);
    std::vector<std::exception_ptr> errors(shards);
    auto run_shard = [&](std::size_t s) {
      ShardContext ctx{s, shards, Rng::stream(seed_, s)};
      try {
        slots[s].emplace(body(ctx));
      } catch (...) {
        errors[s] = std::current_exception();
      }
    };
    dispatch(shards, run_shard, nullptr, nullptr);
    for (std::size_t s = 0; s < shards; ++s)
      if (errors[s]) std::rethrow_exception(errors[s]);
    std::vector<R> out;
    out.reserve(shards);
    for (auto& slot : slots) out.push_back(std::move(*slot));
    return out;
  }

  /// map() with a streaming in-shard-order fold: `merge(acc, result, s)`
  /// is called for shard 0, 1, 2, ... — never concurrently — so any merge
  /// operation (even order-sensitive ones like gauge last-write-wins or
  /// trace concatenation) is deterministic. Merging happens per epoch, as
  /// soon as the barrier publishes a shard range: a merged replica's slot
  /// is freed immediately, so peak memory is one epoch of results plus the
  /// accumulator — not all N replica worlds — which is what lets the 1M-user
  /// sweep fit. If a body throws, merging stops at the first failed shard
  /// (the partial accumulator is discarded) and that exception is rethrown
  /// once all shards have finished.
  template <class Acc, class Fn, class Merge>
  [[nodiscard]] Acc reduce(std::size_t shards, Acc init, Fn&& body,
                           Merge&& merge) {
    using R = std::decay_t<std::invoke_result_t<Fn&, ShardContext&>>;
    NTCO_EXPECTS(shards > 0);
    std::vector<std::optional<R>> slots(shards);
    std::vector<std::exception_ptr> errors(shards);
    auto run_shard = [&](std::size_t s) {
      ShardContext ctx{s, shards, Rng::stream(seed_, s)};
      try {
        slots[s].emplace(body(ctx));
      } catch (...) {
        errors[s] = std::current_exception();
      }
    };
    bool poisoned = false;
    auto drain = [&](std::size_t begin, std::size_t end) {
      for (std::size_t s = begin; s < end && !poisoned; ++s) {
        if (errors[s]) {
          poisoned = true;
          break;
        }
        merge(init, std::move(*slots[s]), s);
        slots[s].reset();
      }
    };
    dispatch(shards, run_shard, &epoch_trampoline<decltype(drain)>, &drain);
    for (std::size_t s = 0; s < shards; ++s)
      if (errors[s]) std::rethrow_exception(errors[s]);
    return init;
  }

 private:
  /// Bridges the engine's function-pointer ABI (no std::function on the
  /// dispatch path) back to the caller's closure.
  template <class Fn>
  static void shard_trampoline(void* ctx, std::size_t shard) {
    (*static_cast<Fn*>(ctx))(shard);
  }
  template <class Fn>
  static void epoch_trampoline(void* ctx, std::size_t begin,
                               std::size_t end) {
    (*static_cast<Fn*>(ctx))(begin, end);
  }

  /// Runs all shards. Serial when the pool (or the problem) is width one —
  /// same epoch segmentation, same callback order, no threads.
  template <class Fn>
  void dispatch(std::size_t shards, Fn& run_shard,
                dataplane::EpochFn epoch_done, void* epoch_ctx) {
    if (threads_ == 1 || shards == 1) {
      const std::size_t width =
          std::max<std::size_t>(engine_cfg_.epoch_width, 1);
      for (std::size_t next = 0; next < shards;) {
        const std::size_t end = std::min(shards, next + width);
        for (std::size_t s = next; s < end; ++s) run_shard(s);
        if (epoch_done != nullptr) epoch_done(epoch_ctx, next, end);
        next = end;
      }
      last_run_ = dataplane::EngineRunStats{};
      return;
    }
    dataplane::EngineConfig cfg = engine_cfg_;
    cfg.workers = std::min(threads_, shards);
    dataplane::Engine engine(cfg);
    engine.run(shards, &shard_trampoline<Fn>, &run_shard, epoch_done,
               epoch_ctx);
    last_run_ = engine.last_run();
  }

  std::uint64_t seed_;
  std::size_t threads_;
  dataplane::EngineConfig engine_cfg_;
  dataplane::EngineRunStats last_run_;
};

}  // namespace ntco::fleet
