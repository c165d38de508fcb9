#include "ntco/fleet/replicator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "ntco/common/error.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/sim/simulator.hpp"
#include "ntco/stats/percentile.hpp"

namespace ntco::fleet {
namespace {

// ---------------------------------------------------------------------------
// Replicator.

TEST(FleetReplicator, DefaultThreadCountIsPositive) {
  EXPECT_GE(default_thread_count(), 1u);
}

TEST(FleetReplicator, MapReturnsResultsInShardOrder) {
  Replicator rep(1, 4);
  const auto out = rep.map(16, [](ShardContext& ctx) {
    EXPECT_EQ(ctx.shard_count, 16u);
    return ctx.shard;
  });
  ASSERT_EQ(out.size(), 16u);
  for (std::size_t s = 0; s < out.size(); ++s) EXPECT_EQ(out[s], s);
}

TEST(FleetReplicator, ShardRngIsTheDocumentedStream) {
  Replicator rep(123, 2);
  auto firsts = rep.map(8, [](ShardContext& ctx) { return ctx.rng.next_u64(); });
  for (std::size_t s = 0; s < firsts.size(); ++s)
    EXPECT_EQ(firsts[s], Rng::stream(123, s).next_u64());
}

/// One small but genuine replica: a discrete-event simulation whose event
/// times and count come from the shard's rng stream.
double simulate_replica(ShardContext& ctx) {
  sim::Simulator sim;
  stats::PercentileSample lat;
  const int events = static_cast<int>(ctx.rng.uniform_int(50, 150));
  for (int i = 0; i < events; ++i) {
    const auto at = Duration::micros(
        static_cast<std::int64_t>(ctx.rng.uniform(0.0, 1e6)));
    sim.schedule_after(at, [&lat, &sim] {
      lat.add(sim.now().since_origin().to_seconds());
    });
  }
  sim.run();
  return lat.p95() + lat.median() + static_cast<double>(lat.count());
}

TEST(FleetDeterminism, MergedResultsAreThreadCountInvariant) {
  // The fleet's core guarantee: identical merged output at any worker
  // count. Run the same 12-shard fleet on 1, 2, and 8 workers and require
  // exact (bit-for-bit) equality of every per-shard result.
  const auto run = [](std::size_t threads) {
    Replicator rep(777, threads);
    return rep.map(12, simulate_replica);
  };
  const auto on1 = run(1);
  const auto on2 = run(2);
  const auto on8 = run(8);
  ASSERT_EQ(on1.size(), on2.size());
  ASSERT_EQ(on1.size(), on8.size());
  for (std::size_t s = 0; s < on1.size(); ++s) {
    EXPECT_EQ(on1[s], on2[s]) << "shard " << s;
    EXPECT_EQ(on1[s], on8[s]) << "shard " << s;
  }
}

TEST(FleetDeterminism, MergedRegistryDumpIsThreadCountInvariant) {
  // Per-shard MetricsRegistry instances reduced in shard order must dump
  // byte-identical CSV no matter how many workers ran the shards, and the
  // merge callback must see exactly shards 0..N-1 in order on both fleets.
  struct Folded {
    obs::MetricsRegistry metrics;
    std::vector<std::size_t> order;
  };
  const auto run = [](std::size_t threads) {
    Replicator rep(31, threads);
    return rep.reduce(
        10, Folded{},
        [](ShardContext& ctx) {
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
  std::vector<std::size_t> expected(10);
  std::iota(expected.begin(), expected.end(), std::size_t{0});
  EXPECT_EQ(on1.order, expected);
  EXPECT_EQ(on8.order, expected);
}

TEST(FleetReplicator, ReduceFoldsInShardOrder) {
  Replicator rep(5, 8);
  const auto order = rep.reduce(
      24, std::vector<std::size_t>{},
      [](ShardContext& ctx) { return ctx.shard; },
      [](std::vector<std::size_t>& acc, std::size_t shard, std::size_t s) {
        EXPECT_EQ(shard, s);
        acc.push_back(shard);
      });
  ASSERT_EQ(order.size(), 24u);
  for (std::size_t s = 0; s < order.size(); ++s) EXPECT_EQ(order[s], s);
}

TEST(FleetReplicator, FirstExceptionInShardOrderPropagates) {
  Replicator rep(9, 4);
  try {
    (void)rep.map(8, [](ShardContext& ctx) -> int {
      if (ctx.shard == 2 || ctx.shard == 6)
        throw std::runtime_error("shard " + std::to_string(ctx.shard));
      return 0;
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 2");
  }
}

/// A shard result that counts how many results are alive at once.
struct Tracked {
  static inline std::size_t live = 0;
  static inline std::size_t peak = 0;
  Tracked() { note(); }
  Tracked(const Tracked&) { note(); }
  Tracked(Tracked&&) noexcept { note(); }
  ~Tracked() { --live; }
  static void note() { peak = std::max(peak, ++live); }
};

TEST(FleetReplicator, FailedShardStillFreesLaterResults) {
  // One worker runs inline, so the plain counters need no atomics. After
  // shard 5 throws, the later results must still be dropped as they
  // arrive: a failing run holds no more than a succeeding one.
  Tracked::live = 0;
  Tracked::peak = 0;
  Replicator rep(3, 1);
  try {
    (void)rep.reduce(
        2'000, 0,
        [](ShardContext& ctx) {
          if (ctx.shard == 5) throw std::runtime_error("shard 5");
          return Tracked{};
        },
        [](int& acc, Tracked&&, std::size_t) { ++acc; });
    FAIL() << "expected the shard exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "shard 5");
  }
  EXPECT_EQ(Tracked::live, 0u);
  EXPECT_LE(Tracked::peak, dataplane::Engine::kWindow);
}

TEST(FleetReplicator, ThrowingMergeJoinsEveryWorker) {
  // A merge that throws mid-run must stop the pool and surface from
  // reduce() only after every worker is joined: no body may still be
  // running (or still writing these vectors) when the exception arrives.
  constexpr std::size_t kShards = 500;
  std::vector<std::uint8_t> started(kShards, 0);
  std::vector<std::uint8_t> finished(kShards, 0);
  Replicator rep(11, 4);
  try {
    (void)rep.reduce(
        kShards, std::uint64_t{0},
        [&](ShardContext& ctx) {
          started[ctx.shard] = 1;
          std::uint64_t x = 0;
          for (int i = 0; i < 2'000; ++i) x += ctx.rng.next_u64() >> 8;
          finished[ctx.shard] = 1;
          return x;
        },
        [](std::uint64_t& acc, std::uint64_t x, std::size_t s) {
          if (s == 100) throw std::runtime_error("merge 100");
          acc += x;
        });
    FAIL() << "expected the merge exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "merge 100");
  }
  std::size_t ran = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_EQ(started[s], finished[s]) << "shard " << s;
    ran += started[s];
  }
  EXPECT_GT(ran, 100u);
  EXPECT_LE(ran, 101 + dataplane::Engine::kWindow);  // nothing new started
}

TEST(FleetReplicator, ContractsRejectZeroShards) {
  Replicator rep(1, 1);
  EXPECT_THROW((void)rep.map(0, [](ShardContext&) { return 0; }),
               ContractViolation);
}

}  // namespace
}  // namespace ntco::fleet
