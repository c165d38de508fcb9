#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

/// \file engine.hpp
/// The fleet's worker pool.
///
/// The traffic is small and coarse: a fleet::Replicator run hands the pool
/// at most a few thousand shard indices, and each shard is a whole
/// simulation that runs for milliseconds. So the pool is one mutex and two
/// condition variables. run() starts `workers` threads and joins them before it
/// returns. A worker claims the next shard index under the mutex, but only
/// while fewer than kWindow shards are claimed and not yet merged, so at
/// most kWindow shard results are alive at once. The calling thread
/// sleeps until the shard at its merge cursor is done, then hands each
/// ready contiguous prefix to the merge callback. Merging therefore runs
/// on one thread in shard order at any worker count, which is what keeps
/// merged artifacts byte-identical between NTCO_THREADS=1 and 8.

namespace ntco::dataplane {

/// Runs one shard. A raw function pointer plus context, so a run costs no
/// allocation per shard.
using ShardFn = void (*)(void* ctx, std::size_t shard);

/// Shards [begin, end) are done and everything they wrote is visible.
/// Called on run()'s thread, in ascending shard order.
using MergeFn = void (*)(void* ctx, std::size_t begin, std::size_t end);

/// What one run() observed. Timing-dependent: report it, never branch on
/// it in a simulation.
struct EngineRunStats {
  std::uint64_t epochs = 0;  ///< merge steps: ready prefixes handed over
  std::uint64_t scale_ups = 0;    ///< always 0: the pool never resizes
  std::uint64_t scale_downs = 0;  ///< always 0: the pool never resizes
  double mean_occupancy = 0.0;    ///< always 0: there is no queue to fill
  std::vector<std::uint64_t> items_per_worker;  ///< shards each worker ran
};

class Engine {
 public:
  /// Most shards claimed but not yet merged.
  static constexpr std::size_t kWindow = 64;

  explicit Engine(std::size_t workers);

  /// Runs `body(body_ctx, s)` for every shard s in [0, shards) on the
  /// workers and `merge` (optional) on the calling thread, as described
  /// above. Returns once every shard is merged and every worker joined.
  /// If `body` or `merge` throws, no further shard is claimed, the
  /// workers are joined, and the first exception is rethrown here.
  void run(std::size_t shards, ShardFn body, void* body_ctx,
           MergeFn merge = nullptr, void* merge_ctx = nullptr);

  [[nodiscard]] const EngineRunStats& last_run() const { return stats_; }

 private:
  std::size_t workers_;
  EngineRunStats stats_;
};

}  // namespace ntco::dataplane
