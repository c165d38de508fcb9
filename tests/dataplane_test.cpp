#include "ntco/dataplane/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ntco/fleet/replicator.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"

// Suite names start with "Dataplane" so tools/ci.sh can rerun exactly these
// under ThreadSanitizer (ctest -R '^Dataplane').

namespace ntco {
namespace {

using dataplane::Engine;

// ---------------------------------------------------------------------------
// Engine: the worker pool.

struct ShardTouches {
  std::vector<std::uint32_t> counts;
};

void touch_shard(void* ctx, std::size_t shard) {
  // Per-shard slots; the pool's mutex publishes the writes to the merging
  // thread, and the join to the caller of run().
  ++static_cast<ShardTouches*>(ctx)->counts[shard];
}

std::uint64_t total(const std::vector<std::uint64_t>& per_worker) {
  std::uint64_t sum = 0;
  for (const std::uint64_t n : per_worker) sum += n;
  return sum;
}

TEST(DataplaneEngine, RunsEveryShardExactlyOnce) {
  Engine engine(4);
  ShardTouches touches;
  touches.counts.assign(203, 0);
  engine.run(203, &touch_shard, &touches);
  for (std::size_t s = 0; s < touches.counts.size(); ++s)
    ASSERT_EQ(touches.counts[s], 1u) << "shard " << s;
  const auto& stats = engine.last_run();
  ASSERT_EQ(stats.items_per_worker.size(), 4u);
  EXPECT_EQ(total(stats.items_per_worker), 203u);
  // Each merge step hands over at most one window of shards.
  EXPECT_GE(stats.epochs, (203u + Engine::kWindow - 1) / Engine::kWindow);
  EXPECT_LE(stats.epochs, 203u);
  // The pool never resizes and has no queue to fill.
  EXPECT_EQ(stats.scale_ups, 0u);
  EXPECT_EQ(stats.scale_downs, 0u);
  EXPECT_EQ(stats.mean_occupancy, 0.0);
}

/// Merge log that also checks each merged shard already ran.
struct MergeLog {
  const ShardTouches* touches = nullptr;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::size_t unfinished = 0;  ///< shards merged before their body ran
};

void log_merge(void* ctx, std::size_t begin, std::size_t end) {
  auto& log = *static_cast<MergeLog*>(ctx);
  log.ranges.emplace_back(begin, end);
  for (std::size_t s = begin; s < end; ++s)
    if (log.touches->counts[s] != 1) ++log.unfinished;
}

/// The merge calls tile [0, shards) in ascending order, each a non-empty
/// prefix no wider than the window.
void expect_tiles(const MergeLog& log, std::size_t shards) {
  std::size_t expect_begin = 0;
  for (const auto& [begin, end] : log.ranges) {
    ASSERT_EQ(begin, expect_begin);
    ASSERT_GT(end, begin);
    ASSERT_LE(end - begin, Engine::kWindow);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, shards);
  EXPECT_EQ(log.unfinished, 0u);
}

TEST(DataplaneEngine, EpochCallbackWalksContiguousAscendingRanges) {
  Engine engine(3);
  ShardTouches touches;
  touches.counts.assign(100, 0);
  MergeLog log;
  log.touches = &touches;
  engine.run(100, &touch_shard, &touches, &log_merge, &log);
  expect_tiles(log, 100);
  EXPECT_EQ(engine.last_run().epochs, log.ranges.size());
}

TEST(DataplaneEngine, ReusableAcrossRuns) {
  Engine engine(2);
  for (int round = 0; round < 3; ++round) {
    ShardTouches touches;
    touches.counts.assign(33, 0);
    engine.run(33, &touch_shard, &touches);
    for (std::size_t s = 0; s < touches.counts.size(); ++s)
      ASSERT_EQ(touches.counts[s], 1u) << "round " << round << " shard " << s;
    EXPECT_EQ(total(engine.last_run().items_per_worker), 33u);
  }
}

TEST(DataplaneEngine, StressRunsEveryShardOnceAndMergesInOrder) {
  // Zero-work shards at 8 workers keep the claim/merge handoff under
  // constant contention; tools/ci.sh runs this under ThreadSanitizer.
  constexpr std::size_t kShards = 20'000;
  Engine engine(8);
  ShardTouches touches;
  touches.counts.assign(kShards, 0);
  MergeLog log;
  log.touches = &touches;
  engine.run(kShards, &touch_shard, &touches, &log_merge, &log);
  for (std::size_t s = 0; s < kShards; ++s)
    ASSERT_EQ(touches.counts[s], 1u) << "shard " << s;
  expect_tiles(log, kShards);
  EXPECT_EQ(total(engine.last_run().items_per_worker), kShards);
}

/// Per-shard start/finish marks; only the shard's own worker writes them.
struct Marks {
  std::vector<std::uint8_t> started;
  std::vector<std::uint8_t> finished;
};

void throw_at_seven(void* ctx, std::size_t shard) {
  auto& marks = *static_cast<Marks*>(ctx);
  marks.started[shard] = 1;
  if (shard == 7) throw std::runtime_error("shard 7");
  marks.finished[shard] = 1;
}

TEST(DataplaneEngine, ThrowingBodyStopsTheRunAndRethrows) {
  constexpr std::size_t kShards = 1'000;
  Engine engine(4);
  Marks marks{std::vector<std::uint8_t>(kShards, 0),
              std::vector<std::uint8_t>(kShards, 0)};
  try {
    engine.run(kShards, &throw_at_seven, &marks);
    FAIL() << "expected the shard exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 7");
  }
  // Every worker was joined: no body is still running, and the window
  // kept the pool from claiming far past the failure.
  std::size_t started = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    started += marks.started[s];
    if (s != 7) {
      EXPECT_EQ(marks.started[s], marks.finished[s]) << "shard " << s;
    }
  }
  EXPECT_LE(started, 7 + Engine::kWindow);
}

// ---------------------------------------------------------------------------
// Epoch determinism: the artifact contract across thread counts.

// One replica's trace shard: a few records derived from the shard-keyed
// substream, so content is a pure function of (seed, shard).
obs::JsonlTraceWriter trace_replica(fleet::ShardContext& ctx) {
  obs::JsonlTraceWriter trace;
  const auto events = 1 + static_cast<int>(ctx.rng.uniform_int(0, 3));
  for (int e = 0; e < events; ++e) {
    obs::emit(&trace,
              TimePoint::at(Duration::micros(
                  static_cast<std::int64_t>(ctx.shard * 100 +
                                            static_cast<std::size_t>(e)))),
              "sim.event.fired",
              {{"seq", ctx.rng.next_u64() % 1000}});
  }
  return trace;
}

std::string merged_trace(std::size_t threads, std::size_t shards) {
  fleet::Replicator rep(4242, threads);
  auto merged = rep.reduce(
      shards, obs::JsonlTraceWriter{}, trace_replica,
      [](obs::JsonlTraceWriter& acc, obs::JsonlTraceWriter&& shard,
         std::size_t) { acc.append_from(shard); });
  return merged.str();
}

TEST(DataplaneEpoch, TraceDigestByteEqualAcrossThreadCounts) {
  const std::string t1 = merged_trace(1, 256);
  const std::string t2 = merged_trace(2, 256);
  const std::string t8 = merged_trace(8, 256);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
}

TEST(DataplaneEpoch, StreamingReduceMatchesSerialFold) {
  // The streaming drain must fold in exactly the shard order of a serial
  // fold: the merge callback sees shards 0..N-1 in order at any worker
  // count.
  struct Folded {
    obs::MetricsRegistry metrics;
    std::vector<std::size_t> order;
  };
  const auto run = [](std::size_t threads) {
    fleet::Replicator rep(31, threads);
    return rep.reduce(
        64, Folded{},
        [](fleet::ShardContext& ctx) {
          obs::MetricsRegistry shard;
          shard.counter(obs::UnregisteredName("fleet.events"))
              .add(ctx.rng.next_u64() % 100);
          shard.summary(obs::UnregisteredName("fleet.latency"))
              .add(ctx.rng.uniform(0.0, 5.0));
          return shard;
        },
        [](Folded& acc, obs::MetricsRegistry&& shard, std::size_t s) {
          acc.metrics.merge_from(shard);
          acc.order.push_back(s);
        });
  };
  const Folded on1 = run(1);
  const Folded on8 = run(8);
  EXPECT_EQ(on1.metrics.to_csv(), on8.metrics.to_csv());
  std::vector<std::size_t> expected(64);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(on1.order, expected);
  EXPECT_EQ(on8.order, expected);
}

TEST(DataplaneEpoch, FirstShardOrderExceptionSurvivesStreamingReduce) {
  fleet::Replicator rep(9, 4);
  try {
    (void)rep.reduce(
        24, 0,
        [](fleet::ShardContext& ctx) -> int {
          if (ctx.shard == 17 || ctx.shard == 5)
            throw std::runtime_error("shard " + std::to_string(ctx.shard));
          return 1;
        },
        [](int& acc, int&& v, std::size_t) { acc += v; });
    FAIL() << "expected the shard exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 5");  // first in shard order, not time
  }
}

}  // namespace
}  // namespace ntco
