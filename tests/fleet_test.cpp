#include "ntco/fleet/replicator.hpp"

#include <gtest/gtest.h>

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
  // byte-identical CSV no matter how many workers ran the shards.
  const auto run = [](std::size_t threads) {
    Replicator rep(31, threads);
    return rep.reduce(
        10, obs::MetricsRegistry{},
        [](ShardContext& ctx) {
          obs::MetricsRegistry shard;
          shard.counter("fleet.events").add(ctx.rng.next_u64() % 100);
          shard.summary("fleet.latency").add(ctx.rng.uniform(0.0, 5.0));
          shard.gauge("fleet.last_shard").set(static_cast<double>(ctx.shard));
          shard.histogram("fleet.lat_s", 0.0, 5.0, 10)
              .add(ctx.rng.uniform(0.0, 5.0));
          return shard;
        },
        [](obs::MetricsRegistry& acc, obs::MetricsRegistry&& shard,
           std::size_t) { acc.merge_from(shard); });
  };
  const std::string csv1 = run(1).to_csv();
  const std::string csv8 = run(8).to_csv();
  EXPECT_EQ(csv1, csv8);
  // The gauge proves the fold ran in shard order on both fleets.
  EXPECT_NE(csv1.find("fleet.last_shard,gauge,value,9"), std::string::npos);
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

TEST(FleetReplicator, ContractsRejectZeroShards) {
  Replicator rep(1, 1);
  EXPECT_THROW((void)rep.map(0, [](ShardContext&) { return 0; }),
               ContractViolation);
}

}  // namespace
}  // namespace ntco::fleet
