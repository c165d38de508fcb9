// Exact allocation counts on the serving path.
//
// This binary replaces the global operator new/delete with counting
// versions, so every heap allocation anywhere in the process — the kernel,
// the worker pool, the fabric, the controller, the broker, std::function,
// shared_ptr — shows up in `allocations`. Each test warms its subject up, then pins how
// many allocations one steady-state operation costs. The counter is a
// plain integer: only the thread under test allocates inside a counting
// window (pool workers run allocation-free shard bodies).

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "ntco/alloc/memory_optimizer.hpp"
#include "ntco/app/generators.hpp"
#include "ntco/app/task_graph.hpp"
#include "ntco/app/workloads.hpp"
#include "ntco/broker/broker.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/dataplane/engine.hpp"
#include "ntco/edgesim/edge_platform.hpp"
#include "ntco/fabric/fabric.hpp"
#include "ntco/net/path.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/partition/partitioners.hpp"
#include "ntco/serverless/platform.hpp"
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

// Out of line on purpose: once GCC inlines a replacement operator delete
// into a caller that also shows the matching operator new, it reports
// free() on a pointer from operator new (-Wmismatched-new-delete), not
// knowing this operator new allocates with malloc.
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

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
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
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
  round();  // grows the arena, its queue links, and `ids` once
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
}

// --------------------------------------------------------------- Dataplane

void count_shard(void* ctx, std::size_t shard) {
  static_cast<std::uint64_t*>(ctx)[shard] += 1;
}

TEST(AllocationCount, EngineRunCostIsFlatInTheShardCount) {
  dataplane::Engine engine(2);
  std::vector<std::uint64_t> hits(65'536, 0);
  const auto run_cost = [&](std::size_t shards) {
    return allocations_in(
        [&] { engine.run(shards, &count_shard, hits.data()); });
  };
  const std::size_t small = run_cost(1'024);
  const std::size_t large = run_cost(65'536);
  EXPECT_EQ(small, large) << "allocations must not grow with shards";
  // The thread handles, one state block per worker, the per-worker counts.
  EXPECT_EQ(large, 4u);
}

// ------------------------------------------------------------------ Fabric

TEST(AllocationCount, FabricAdmissionAllocatesOneDepartureNode) {
  sim::Simulator sim;
  fabric::Fabric net(sim);
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

// ---------------------------------------------------------------- Platform

/// Requests (or rounds) per counting window.
constexpr std::size_t kWindow = 840;

TEST(AllocationCount, WarmInvocationAllocatesNothing) {
  // Bursts of 8 at an account limit of 3: five of each burst queue behind
  // the throttle, and every invocation after the first three runs on a
  // warm instance (a round ends well inside the keep-alive).
  sim::Simulator sim;
  serverless::PlatformConfig cfg;
  cfg.account_concurrency = 3;
  serverless::Platform platform(sim, cfg);
  const serverless::FunctionId fn = platform.deploy(
      {"fn", DataSize::megabytes(1792), DataSize::megabytes(10)});
  constexpr std::size_t kBurst = 8;
  std::size_t done = 0;
  const auto round = [&] {
    for (std::size_t i = 0; i < kBurst; ++i)
      platform.invoke(fn, Cycles::giga(1),
                      [&done](const serverless::InvocationResult&) { ++done; });
    sim.run_until(sim.now() + Duration::minutes(1));
  };
  // Keep-alive timers fire ten minutes after they are armed, so the number
  // of pending events, and with it the event arena, settles after ten
  // rounds.
  constexpr std::size_t kWarmup = 16;
  for (std::size_t i = 0; i < kWarmup; ++i) round();
  const std::size_t n = allocations_in([&] {
    for (std::size_t i = 0; i < kWindow; ++i) round();
  });
  EXPECT_EQ(n, 0u);
  EXPECT_EQ(done, kBurst * (kWarmup + kWindow));
  const serverless::PlatformStats st = platform.stats();
  EXPECT_EQ(st.cold_starts, 3u);
  EXPECT_EQ(st.throttled, (kBurst - 3) * (kWarmup + kWindow));
}

// -------------------------------------------------------------------- Edge

TEST(AllocationCount, WarmEdgeJobAllocatesNothing) {
  // Bursts of 8 at 3 servers: five of each burst queue. Each round also
  // checkpoints one running and one queued job, and one completion
  // callback submits again into the slot it just freed.
  sim::Simulator sim;
  edgesim::EdgeConfig cfg;
  cfg.servers = 3;
  edgesim::EdgePlatform edge(sim, cfg);
  constexpr std::size_t kBurst = 8;
  std::size_t done = 0;
  const auto round = [&] {
    edgesim::EdgePlatform::JobId ids[kBurst] = {};
    for (std::size_t i = 0; i < kBurst; ++i)
      ids[i] = edge.submit(
          Cycles::giga(1),
          [&edge, &done, again = i == 1](const edgesim::EdgeResult&) {
            ++done;
            if (again)
              edge.submit(Cycles::giga(1),
                          [&done](const edgesim::EdgeResult&) { ++done; });
          });
    edge.checkpoint(ids[0]);          // running: a queued job takes over
    edge.checkpoint(ids[kBurst - 1]);  // queued: the FIFO tail
    sim.run();
  };
  constexpr std::size_t kWarmup = 16;
  for (std::size_t i = 0; i < kWarmup; ++i) round();
  const std::size_t n = allocations_in([&] {
    for (std::size_t i = 0; i < kWindow; ++i) round();
  });
  EXPECT_EQ(n, 0u);
  constexpr std::size_t kRounds = kWarmup + kWindow;
  EXPECT_EQ(done, (kBurst + 1) * kRounds);
  EXPECT_EQ(edge.stats().preemptions, 2 * kRounds);
  EXPECT_EQ(edge.stats().jobs, (kBurst - 1) * kRounds);
}

// -------------------------------------------------------------- Controller

struct RunCounts {
  std::size_t invoked = 0;   ///< kWindow rounds of direct invocations
  std::size_t executed = 0;  ///< kWindow execute_async runs
};

/// Allocations of kWindow rounds of direct Platform::invoke calls on the
/// functions of `g`'s plan, and of kWindow execute_async runs of `g`, each
/// drained, after both have warmed up.
RunCounts run_counts(const app::TaskGraph& g, obs::MetricsRegistry* metrics) {
  sim::Simulator sim;
  serverless::Platform platform(sim, {});
  device::Device ue(device::budget_phone());
  net::NetworkPath path = net::make_fixed_path(net::profile_wifi());
  core::OffloadController controller(sim, platform, ue, path, {});
  controller.attach_observer(nullptr, metrics);
  const core::DeploymentPlan plan =
      controller.prepare(g, partition::MinCutPartitioner{});
  std::size_t runs = 0;
  std::size_t invocations = 0;
  const auto execute = [&] {
    controller.execute_async(
        plan, g, [&runs](const core::ExecutionReport&) { ++runs; });
    sim.run();
  };
  const auto invoke = [&] {
    for (const app::ComponentId v : plan.order) {
      const auto fn = plan.function_for(v);
      if (!fn.has_value()) continue;
      platform.invoke(*fn, g.component(v).work,
                      [&invocations](const serverless::InvocationResult&) {
                        ++invocations;
                      });
      sim.run();
    }
  };
  for (int i = 0; i < 8; ++i) {
    execute();
    invoke();
  }
  RunCounts c;
  c.executed = allocations_in([&] {
    for (std::size_t i = 0; i < kWindow; ++i) execute();
  });
  c.invoked = allocations_in([&] {
    for (std::size_t i = 0; i < kWindow; ++i) invoke();
  });
  EXPECT_EQ(runs, 8 + kWindow) << g.name();
  EXPECT_EQ(invocations, (8 + kWindow) * plan.partition.remote_count())
      << g.name();
  if (metrics != nullptr) controller.publish(*metrics);
  return c;
}

TEST(AllocationCount, ControllerRunAllocatesNothing) {
  for (const app::TaskGraph& g : app::workloads::all()) {
    const RunCounts c = run_counts(g, nullptr);
    EXPECT_EQ(c.invoked, 0u) << g.name();
    EXPECT_EQ(c.executed, 0u) << g.name();
  }
}

TEST(AllocationCount, ObservedControllerRunAllocatesNothing) {
  for (const app::TaskGraph& g : app::workloads::all()) {
    obs::MetricsRegistry metrics;
    const RunCounts c = run_counts(g, &metrics);
    EXPECT_EQ(c.invoked, 0u) << g.name();
    EXPECT_EQ(c.executed, 0u) << g.name();
    EXPECT_EQ(metrics.counter("core.runs").value(), 8 + kWindow) << g.name();
  }
}

// ---------------------------------------------------------------- Planning

/// A 64-component layered DAG: the size replan-heavy serving plans at.
app::TaskGraph wide_graph() {
  app::GeneratorParams gp;
  gp.components = 64;
  return app::layered_random(6, gp, Rng(64));
}

/// Allocations of one warm prepare() of `g`: its deployment memoised, its
/// components sized, the partitioner reused.
std::size_t warm_prepare_allocations(const app::TaskGraph& g) {
  sim::Simulator sim;
  serverless::Platform platform(sim, {});
  device::Device ue(device::budget_phone());
  net::NetworkPath path = net::make_fixed_path(net::profile_wifi());
  core::OffloadController controller(sim, platform, ue, path, {});
  const partition::MinCutPartitioner mincut;
  const core::DeploymentPlan cold = controller.prepare(g, mincut);
  EXPECT_GT(cold.partition.remote_count(), 0u) << g.name();
  core::DeploymentPlan warm;
  const std::size_t n =
      allocations_in([&] { warm = controller.prepare(g, mincut); });
  EXPECT_EQ(warm.function_of, cold.function_of) << g.name();  // memo hit
  EXPECT_EQ(warm.order, cold.order) << g.name();
  return n;
}

TEST(AllocationCount, WarmPrepareAllocatesOnlyThePlanItReturns) {
  // The plan's four rows (placement, function_of, memory_of, order) and
  // the topological sort's in-degree scratch, whatever the graph's size
  // or the length of its name ("ml-batch-training" outgrows the
  // small-string buffer; the fingerprint buffer keeps its capacity).
  constexpr std::size_t kPlanRows = 4;
  constexpr std::size_t kScratch = 1;
  for (const app::TaskGraph& g : app::workloads::all())
    EXPECT_EQ(warm_prepare_allocations(g), kPlanRows + kScratch) << g.name();
  EXPECT_EQ(warm_prepare_allocations(wide_graph()), kPlanRows + kScratch);
}

TEST(AllocationCount, ReusedMinCutPlanAllocatesOnlyItsPartition) {
  partition::Environment env;
  env.device = device::budget_phone();
  const partition::MinCutPartitioner mincut;
  // The wide graph first: the solver's buffers then fit the small one.
  for (const app::TaskGraph& g :
       {wide_graph(), app::workloads::photo_backup()}) {
    const partition::CostModel model(g, env,
                                     partition::Objective::latency());
    const partition::Partition cold = mincut.plan(model);
    partition::Partition warm;
    EXPECT_EQ(allocations_in([&] { warm = mincut.plan(model); }), 1u)
        << g.name();
    EXPECT_EQ(warm, cold) << g.name();
  }
}

TEST(AllocationCount, AnnealingPlanAllocationsDoNotGrowWithIterations) {
  // A move flips `current` in place and copies into `best` only on an
  // improvement, into `best`'s own buffer: plan() allocates its free-id
  // list (sized once), `current` and `best`, however long it anneals.
  partition::Environment env;
  env.device = device::budget_phone();
  const app::TaskGraph g = wide_graph();
  const partition::CostModel model(g, env, partition::Objective::latency());
  const auto plan_allocations = [&](std::size_t iterations) {
    const partition::AnnealingPartitioner annealing({iterations}, Rng(5));
    partition::Partition p;
    const std::size_t n = allocations_in([&] { p = annealing.plan(model); });
    EXPECT_TRUE(p.respects_pins(g));
    return n;
  };
  EXPECT_EQ(plan_allocations(10), 3u);
  EXPECT_EQ(plan_allocations(10'000), 3u);
}

TEST(AllocationCount, MemoryChoiceAllocatesNothing) {
  sim::Simulator sim;
  const serverless::Platform platform(sim, {});
  const alloc::MemoryOptimizer optimizer(platform);
  alloc::MemoryChoice choice;
  const std::size_t n = allocations_in([&] {
    choice = optimizer.choose(Cycles::giga(3), DataSize::megabytes(256), 0.8,
                              Duration::seconds(2));
  });
  EXPECT_EQ(n, 0u);
  EXPECT_TRUE(choice.feasible);
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

/// Every request hits one warm cache row: no TTL expiry, and jobs start as
/// soon as they are admitted. Callers keep their runs inside one
/// kHoursPerWindow price window.
broker::BrokerConfig warm_hit_config(bool batching) {
  broker::BrokerConfig cfg;
  cfg.batching_enabled = batching;
  cfg.defer.policy = sched::Policy::Immediate;
  cfg.cache.ttl = Duration::hours(24 * 365);
  return cfg;
}

/// Steps `w` until `outcomes` reaches `target`. Stopping at the last
/// outcome, not when the queue drains, leaves the keep-alive timers
/// pending: a drained queue would add ten idle minutes per call.
void run_until_outcomes(BrokerWorld& w, const std::size_t& outcomes,
                        std::size_t target) {
  while (outcomes < target && w.sim.step()) {
  }
}

/// Requests served side by side in warm_serve_allocations: one at a time,
/// video-transcode's would outlast the 6-hour price window and replan.
constexpr std::size_t kSideBySide = 8;

/// Allocations of kWindow warm cache-hit requests for `g`, served to
/// completion kSideBySide at a time with batching off.
std::size_t warm_serve_allocations(const app::TaskGraph& g) {
  BrokerWorld w(warm_hit_config(/*batching=*/false));
  std::size_t outcomes = 0;
  broker::ServeRequest req;
  req.app = &g;
  const auto round = [&] {
    const std::size_t target = outcomes + kSideBySide;
    for (std::size_t i = 0; i < kSideBySide; ++i)
      w.broker.serve(req,
                     [&outcomes](const broker::ServeOutcome&) { ++outcomes; });
    run_until_outcomes(w, outcomes, target);
  };
  round();
  round();
  const std::size_t n = allocations_in([&] {
    for (std::size_t i = 0; i < kWindow / kSideBySide; ++i) round();
  });
  const std::size_t served = 2 * kSideBySide + kWindow;
  EXPECT_EQ(outcomes, served) << g.name();
  EXPECT_EQ(w.broker.stats().completed, served) << g.name();
  EXPECT_EQ(w.broker.cache().stats().misses, 1u) << g.name();
  EXPECT_LT(w.sim.now(),
            TimePoint::at(Duration::hours(broker::kHoursPerWindow)))
      << g.name();
  return n;
}

/// `g` under another name: same components and flows.
app::TaskGraph renamed(const app::TaskGraph& g, std::string name) {
  app::TaskGraph out(std::move(name));
  for (const app::Component& comp : g.components()) out.add_component(comp);
  for (const app::DataFlow& f : g.flows()) out.add_flow(f.from, f.to, f.bytes);
  return out;
}

TEST(AllocationCount, WarmCacheHitServeAddsNoBrokerAllocations) {
  // Nothing on the serve path allocates: not the broker, the controller
  // or the platform.
  for (const app::TaskGraph& g :
       {app::workloads::photo_backup(), app::workloads::video_transcode(),
        app::workloads::nightly_etl()})
    EXPECT_EQ(warm_serve_allocations(g), 0u) << g.name();
}

TEST(AllocationCount, LongWorkloadNamesCostOnlyTheirCopies) {
  // "ml-batch-training" is 17 characters, past libstdc++'s 15-character
  // inline string, yet a warm serve copies it nowhere: the decision
  // context and the cache key carry its interned id. It costs what the
  // same graph costs under a short name: nothing.
  const app::TaskGraph long_name = app::workloads::ml_batch_training();
  const app::TaskGraph short_name = renamed(long_name, "ml-batch");
  EXPECT_EQ(warm_serve_allocations(short_name), 0u);
  EXPECT_EQ(warm_serve_allocations(long_name), 0u);
}

TEST(AllocationCount, BatchedBrokerAllocatesPerBatchNotPerJob) {
  const app::TaskGraph g = app::workloads::photo_backup();
  broker::BrokerConfig cfg = warm_hit_config(/*batching=*/true);
  cfg.admission.burst = 64.0;  // a round is admitted at once, no deferrals
  BrokerWorld w(std::move(cfg));
  broker::ServeRequest req;
  req.app = &g;
  std::size_t outcomes = 0;
  // One round: 28 requests land in one batch on the 10-minute grid and
  // run to completion on its lanes; the 32 rounds end inside the first
  // 6-hour price window.
  constexpr std::size_t kPerRound = 28;
  const auto round = [&] {
    const std::size_t target = outcomes + kPerRound;
    for (std::size_t i = 0; i < kPerRound; ++i)
      w.broker.serve(req,
                     [&outcomes](const broker::ServeOutcome&) { ++outcomes; });
    run_until_outcomes(w, outcomes, target);
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
  EXPECT_EQ(w.broker.cache().stats().misses, 1u);
  EXPECT_LT(w.sim.now(),
            TimePoint::at(Duration::hours(broker::kHoursPerWindow)));
  // Two per batch: its map node and its id vector, sized once.
  EXPECT_EQ(total, 2 * batches)
      << "allocations for " << kWindow << " requests in " << batches
      << " batches";
}

}  // namespace
}  // namespace ntco
