// Exact allocation counts on the serving path.
//
// This binary replaces the global operator new/delete with counting
// versions, so every heap allocation anywhere in the process — the kernel,
// the rings, the fabric, the broker, std::function, shared_ptr — shows up
// in `allocations`. Each test warms its subject up, then pins how many
// allocations one steady-state operation costs. The counter is a plain
// integer: only the thread under test allocates inside a counting window
// (dataplane workers run allocation-free shard bodies).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "ntco/app/task_graph.hpp"
#include "ntco/app/workloads.hpp"
#include "ntco/broker/broker.hpp"
#include "ntco/dataplane/engine.hpp"
#include "ntco/dataplane/ring.hpp"
#include "ntco/fabric/fabric.hpp"
#include "ntco/net/path.hpp"
#include "ntco/sim/simulator.hpp"

namespace {

std::size_t allocations = 0;

void* counted_alloc(std::size_t n) {
  ++allocations;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++allocations;
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

void* or_throw(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new[](std::size_t n) { return or_throw(counted_alloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new(std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned_alloc(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return or_throw(counted_aligned_alloc(n, al));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ntco {
namespace {

/// Allocations made while `fn` runs.
template <class Fn>
std::size_t allocations_in(Fn&& fn) {
  const std::size_t before = allocations;
  fn();
  return allocations - before;
}

// ------------------------------------------------------------ Event kernel

TEST(AllocationCount, SimulatorScheduleFireCancelIsAllocationFree) {
  sim::Simulator sim;
  std::uint64_t fired = 0;
  const auto round = [&] {
    std::vector<sim::EventId> ids;
    for (std::uint64_t i = 0; i < 256; ++i)
      ids.push_back(sim.schedule_after(
          Duration::micros(static_cast<std::int64_t>(i % 17)),
          [&fired, i] { fired += i; }));
    for (std::size_t i = 0; i < ids.size(); i += 3) sim.cancel(ids[i]);
    sim.run();
  };
  round();  // grows the arena, the heap, and `ids` once
  std::vector<sim::EventId> ids;
  ids.reserve(1024);
  const std::size_t n = allocations_in([&] {
    for (int r = 0; r < 4; ++r) {
      ids.clear();
      for (std::uint64_t i = 0; i < 256; ++i)
        ids.push_back(sim.schedule_after(
            Duration::micros(static_cast<std::int64_t>(i % 17)),
            [&fired, i] { fired += i; }));
      for (std::size_t i = 0; i < ids.size(); i += 3) sim.cancel(ids[i]);
      sim.run();
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_GT(fired, 0u);
  EXPECT_EQ(sim.heap_handlers(), 0u);
}

// ------------------------------------------------------------------- Rings

TEST(AllocationCount, RingPushPopIsAllocationFree) {
  Ring<std::uint64_t> spsc(64);
  MpscRing<std::uint64_t> mpsc(64);
  std::uint64_t sum = 0;
  const std::size_t n = allocations_in([&] {
    for (std::uint64_t i = 0; i < 10'000; ++i) {
      std::uint64_t v = 0;
      ASSERT_TRUE(spsc.try_push(i));
      ASSERT_TRUE(spsc.try_pop(v));
      sum += v;
      ASSERT_TRUE(mpsc.try_push(i));
      ASSERT_TRUE(mpsc.try_pop(v));
      sum += v;
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(sum, 2u * (10'000u * 9'999u / 2u));
}

// --------------------------------------------------------------- Dataplane

void count_shard(void* ctx, std::size_t shard) {
  static_cast<std::uint64_t*>(ctx)[shard] += 1;
}

TEST(AllocationCount, EngineRunCostIsFlatInTheShardCount) {
  dataplane::EngineConfig cfg;
  cfg.workers = 2;
  dataplane::Engine engine(cfg);
  std::vector<std::uint64_t> hits(65'536, 0);
  engine.run(64, &count_shard, hits.data());  // workers up, state sized
  const auto run_cost = [&](std::size_t shards) {
    return allocations_in(
        [&] { engine.run(shards, &count_shard, hits.data()); });
  };
  const std::size_t small = run_cost(1'024);
  const std::size_t large = run_cost(65'536);
  EXPECT_EQ(small, large) << "allocations must not grow with shards";
  EXPECT_EQ(large, 4u);
}

// ------------------------------------------------------------------ Fabric

TEST(AllocationCount, FabricAdmissionAllocatesOneDepartureNode) {
  sim::Simulator sim;
  fabric::Fabric net(sim, {});
  const fabric::SegmentId seg = net.add_segment(
      {"lan.up", DataRate::megabits_per_second(100000), Duration::zero()});
  net::PathSpec spec;
  spec.name = "ue";
  spec.up = {DataRate::megabits_per_second(100), Duration::millis(1), 0.0,
             0.0};
  spec.down = spec.up;
  const auto path = net.attach(spec, fabric::Route{{seg}, {seg}});
  Duration total;
  total += path->uplink_time(DataSize::megabytes(1));  // sizes the scratch
  constexpr std::size_t kFlows = 512;
  const std::size_t n = allocations_in([&] {
    for (std::size_t i = 0; i < kFlows; ++i)
      total += path->uplink_time(DataSize::megabytes(1));
  });
  EXPECT_EQ(n, kFlows);  // one departures-set node per admitted flow
  EXPECT_GT(total, Duration::zero());
}

// ------------------------------------------------------------------ Broker

/// A full single-user world behind one broker.
struct BrokerWorld {
  explicit BrokerWorld(broker::BrokerConfig cfg)
      : platform(sim, {}),
        ue(device::budget_phone()),
        path(net::make_fixed_path(net::profile_wifi())),
        controller(sim, platform, ue, path, {}),
        broker(sim, platform, controller, mincut, std::move(cfg)) {}

  sim::Simulator sim;
  serverless::Platform platform;
  device::Device ue;
  net::NetworkPath path;
  core::OffloadController controller;
  partition::MinCutPartitioner mincut;
  broker::Broker broker;
};

/// Every request hits one warm cache row: no TTL expiry, one price window
/// for the whole day, and jobs start as soon as they are admitted.
broker::BrokerConfig warm_hit_config(bool batching) {
  broker::BrokerConfig cfg;
  cfg.batching_enabled = batching;
  cfg.defer.policy = sched::Policy::Immediate;
  cfg.cache.ttl = Duration::hours(24 * 365);
  cfg.cache.hours_per_window = 24;
  return cfg;
}

/// Requests per counting window. The platform queues invocations in a
/// std::deque, which allocates a node every few pushes; a window of
/// 840 = lcm(1..8) requests spans a whole number of nodes at any node
/// capacity up to 8, so both windows below see the same deque cost.
constexpr std::size_t kWindow = 840;

struct ShareCounts {
  std::size_t served = 0;    ///< kWindow warm hits through Broker::serve
  std::size_t executed = 0;  ///< kWindow execute_async runs, same plan
  std::size_t outcomes = 0;
};

/// Allocations of kWindow warm cache-hit requests served to completion
/// with batching off, next to those of kWindow direct execute_async runs of
/// the same plan. Their difference is the broker's share.
ShareCounts broker_share(const app::TaskGraph& g) {
  BrokerWorld w(warm_hit_config(/*batching=*/false));
  ShareCounts c;
  broker::ServeRequest req;
  req.app = &g;
  const auto serve = [&] {
    w.broker.serve(req, [&c](const broker::ServeOutcome&) { ++c.outcomes; });
    w.sim.run();
  };
  // The same environment the broker plans under, so the deployment memo
  // hands back the broker's functions (and their warm instances).
  const core::DeploymentPlan plan = w.controller.prepare(g, w.mincut);
  const auto execute = [&] {
    w.controller.execute_async(
        plan, g, [&c](const core::ExecutionReport&) { ++c.outcomes; });
    w.sim.run();
  };
  for (int i = 0; i < 8; ++i) {
    serve();
    execute();
  }
  c.served = allocations_in([&] {
    for (std::size_t i = 0; i < kWindow; ++i) serve();
  });
  c.executed = allocations_in([&] {
    for (std::size_t i = 0; i < kWindow; ++i) execute();
  });
  EXPECT_EQ(w.broker.stats().completed, 8 + kWindow);
  EXPECT_EQ(w.broker.cache().stats().misses, 1u);
  EXPECT_EQ(w.sim.heap_handlers(), 0u);
  return c;
}

/// `g` under another name: same components and flows.
app::TaskGraph renamed(const app::TaskGraph& g, std::string name) {
  app::TaskGraph out(std::move(name));
  for (const app::Component& comp : g.components()) out.add_component(comp);
  for (const app::DataFlow& f : g.flows()) out.add_flow(f.from, f.to, f.bytes);
  return out;
}

TEST(AllocationCount, WarmCacheHitServeAddsNoBrokerAllocations) {
  for (const app::TaskGraph& g :
       {app::workloads::photo_backup(), app::workloads::video_transcode(),
        app::workloads::nightly_etl()}) {
    const ShareCounts c = broker_share(g);
    EXPECT_EQ(c.served, c.executed) << g.name();
    EXPECT_EQ(c.outcomes, 2 * (8 + kWindow)) << g.name();
  }
}

TEST(AllocationCount, LongWorkloadNamesCostOnlyTheirCopies) {
  // "ml-batch-training" is 17 characters, past libstdc++'s 15-character
  // inline string: the decision context, the cache key, and the deferred
  // job each copy it. Under a short name the same graph costs nothing.
  const app::TaskGraph long_name = app::workloads::ml_batch_training();
  const app::TaskGraph short_name = renamed(long_name, "ml-batch");
  const ShareCounts l = broker_share(long_name);
  const ShareCounts s = broker_share(short_name);
  EXPECT_EQ(s.served, s.executed);
  EXPECT_EQ(l.served - l.executed, 3 * kWindow);
}

TEST(AllocationCount, BatchedBrokerAllocatesPerBatchNotPerJob) {
  const app::TaskGraph g = app::workloads::photo_backup();
  // What kWindow executions of the plan cost on their own.
  const std::size_t executions = broker_share(g).executed;

  broker::BrokerConfig cfg = warm_hit_config(/*batching=*/true);
  cfg.admission.burst = 64.0;  // a round is admitted at once, no deferrals
  BrokerWorld w(std::move(cfg));
  broker::ServeRequest req;
  req.app = &g;
  std::size_t outcomes = 0;
  // One round: 21 requests land in one batch on the 10-minute grid and
  // run to completion on its lanes.
  constexpr std::size_t kPerRound = 21;
  const auto round = [&] {
    for (std::size_t i = 0; i < kPerRound; ++i)
      w.broker.serve(req,
                     [&outcomes](const broker::ServeOutcome&) { ++outcomes; });
    w.sim.run();
  };
  round();
  round();
  const std::uint64_t batches_before = w.broker.dispatcher().stats().batches;
  const std::size_t total = allocations_in([&] {
    for (std::size_t r = 0; r < kWindow / kPerRound; ++r) round();
  });
  const std::uint64_t batches =
      w.broker.dispatcher().stats().batches - batches_before;
  ASSERT_EQ(batches, kWindow / kPerRound);
  EXPECT_EQ(outcomes, kWindow + 2 * kPerRound);
  // Two per batch: its map node and its id vector, sized once.
  EXPECT_EQ(total - executions, 2 * batches)
      << "broker allocations for " << kWindow << " requests in " << batches
      << " batches";
  EXPECT_EQ(w.sim.heap_handlers(), 0u);
}

}  // namespace
}  // namespace ntco
