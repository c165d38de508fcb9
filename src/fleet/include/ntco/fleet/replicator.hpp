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
/// own platforms, its own Rng substream). The Replicator runs N replicas
/// on the dataplane worker pool (dataplane::Engine) and returns their
/// results *in shard order*, so any reduction the caller performs is a
/// sequential left fold over a thread-count-independent sequence: merged
/// output is byte-identical whether the fleet ran on 1 worker or 16. Two
/// rules make that hold:
///
///  1. Randomness is keyed by shard, never by thread: shard s draws from
///     Rng::stream(seed, s) regardless of which worker executes it.
///  2. Results land in per-shard slots and are merged on one thread, in
///     shard order; nothing is reduced concurrently.
///
/// Replica bodies must not share mutable state (each owns its world); the
/// pool's mutex orders a shard's writes before the merging thread's reads.

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

/// Runs shard bodies on the dataplane pool and reduces in shard order.
class Replicator {
 public:
  /// `threads == 0` means default_thread_count() (NTCO_THREADS override,
  /// else hardware concurrency).
  explicit Replicator(std::uint64_t seed, std::size_t threads = 0)
      : seed_(seed),
        threads_(threads == 0 ? default_thread_count() : threads) {}

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] std::size_t threads() const { return threads_; }

  /// What the pool measured during the last parallel map/reduce: merge
  /// steps and shards per worker. Zeroed after a serial run (threads==1 or
  /// shards==1 runs inline on the caller). Timing-dependent — report it,
  /// never branch on it in-sim.
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
  /// operation (even an order-sensitive one, such as per-shard
  /// trace concatenation) is deterministic. A shard is merged as soon as
  /// it and every shard before it are done, and its slot is freed then, so
  /// peak memory is at most dataplane::Engine::kWindow results plus the
  /// accumulator — not all N replica worlds — which is what lets the
  /// 1M-user sweep fit. If a body throws, merging stops at the first
  /// failed shard (the partial accumulator is discarded) but later slots
  /// are still freed as they arrive, and that exception is rethrown once
  /// all shards have finished. If `merge` throws, no further shard starts
  /// and the exception propagates once the running ones have finished.
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
      for (std::size_t s = begin; s < end; ++s) {
        if (errors[s]) poisoned = true;
        if (!poisoned) merge(init, std::move(*slots[s]), s);
        slots[s].reset();
      }
    };
    dispatch(shards, run_shard, &merge_trampoline<decltype(drain)>, &drain);
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
  static void merge_trampoline(void* ctx, std::size_t begin,
                               std::size_t end) {
    (*static_cast<Fn*>(ctx))(begin, end);
  }

  /// Runs all shards. Inline on the caller when the pool (or the problem)
  /// is width one: each shard runs, then merges, before the next starts.
  template <class Fn>
  void dispatch(std::size_t shards, Fn& run_shard, dataplane::MergeFn merge,
                void* merge_ctx) {
    last_run_ = dataplane::EngineRunStats{};
    if (threads_ == 1 || shards == 1) {
      for (std::size_t s = 0; s < shards; ++s) {
        run_shard(s);
        if (merge != nullptr) merge(merge_ctx, s, s + 1);
      }
      return;
    }
    dataplane::Engine engine(std::min(threads_, shards));
    engine.run(shards, &shard_trampoline<Fn>, &run_shard, merge, merge_ctx);
    last_run_ = engine.last_run();
  }

  std::uint64_t seed_;
  std::size_t threads_;
  dataplane::EngineRunStats last_run_;
};

}  // namespace ntco::fleet
