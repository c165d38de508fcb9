#include "ntco/core/controller.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "ntco/alloc/memory_optimizer.hpp"
#include "ntco/app/generators.hpp"
#include "ntco/app/workloads.hpp"
#include "ntco/common/error.hpp"
#include "ntco/common/rng.hpp"
#include "ntco/net/path.hpp"

namespace ntco::core {
namespace {

/// Everything one end-to-end test needs, wired together.
struct Fixture {
  sim::Simulator sim;
  serverless::Platform platform;
  device::Device ue;
  net::NetworkPath path;
  OffloadController controller;

  explicit Fixture(ControllerConfig cfg = {},
                   net::TechProfile tech = net::profile_4g(),
                   serverless::PlatformConfig pcfg = {})
      : platform(sim, pcfg),
        ue(device::budget_phone()),
        path(net::make_fixed_path(tech)),
        controller(sim, platform, ue, path, cfg) {}
};

TEST(MakeEnvironment, ReflectsPlatformDeviceAndNetwork) {
  Fixture fx;
  const auto g = app::workloads::photo_backup();
  const auto env = fx.controller.make_environment(g);
  EXPECT_EQ(env.device.name, "budget-phone");
  EXPECT_EQ(env.uplink, net::profile_4g().uplink);
  EXPECT_EQ(env.downlink_latency, net::profile_4g().one_way_latency);
  // Reference memory of 1792 MB buys exactly one 2.5 GHz vCPU.
  EXPECT_EQ(env.remote_speed, Frequency::gigahertz(2.5));
  // Overhead includes the amortised cold-start share.
  EXPECT_GT(env.remote_overhead, Duration::zero());
  EXPECT_GT(env.remote_price_per_second, Money::zero());
}

TEST(Prepare, DeploysOneFunctionPerRemoteComponent) {
  Fixture fx;
  const auto g = app::workloads::ml_batch_training();
  const partition::MinCutPartitioner mincut;
  const auto plan = fx.controller.prepare(g, mincut);
  ASSERT_EQ(plan.function_of.size(), g.component_count());
  std::size_t deployed = 0;
  for (app::ComponentId id = 0; id < g.component_count(); ++id) {
    if (plan.is_remote(id)) {
      const auto fn = plan.function_for(id);
      ASSERT_TRUE(fn.has_value());
      // Memory respects the component's working set.
      const auto mem = plan.memory_for(id);
      ASSERT_TRUE(mem.has_value());
      EXPECT_GE(*mem, g.component(id).memory);
      EXPECT_EQ(fx.platform.spec(*fn).memory, *mem);
      ++deployed;
    } else {
      EXPECT_FALSE(plan.function_for(id).has_value());
      EXPECT_FALSE(plan.memory_for(id).has_value());
    }
  }
  // Out-of-range ids read as "not deployed" rather than faulting.
  const auto past_end = static_cast<app::ComponentId>(g.component_count());
  EXPECT_FALSE(plan.function_for(past_end).has_value());
  EXPECT_EQ(fx.platform.function_count(), deployed);
  EXPECT_GT(deployed, 0u);  // ML training must offload on 4G
}

TEST(Prepare, RespectsPinsAndPredictsCosts) {
  Fixture fx;
  const auto g = app::workloads::nightly_etl();
  const partition::MinCutPartitioner mincut;
  const auto plan = fx.controller.prepare(g, mincut);
  EXPECT_TRUE(plan.partition.respects_pins(g));
  EXPECT_GT(plan.predicted.latency, Duration::zero());
  EXPECT_GT(plan.predicted.objective, 0.0);
}

TEST(Execute, LocalOnlyPlanMatchesDeviceMath) {
  Fixture fx;
  const auto g = app::workloads::photo_backup();
  const partition::LocalOnlyPartitioner local;
  const auto plan = fx.controller.prepare(g, local);
  const auto r = fx.controller.execute(plan, g);
  // Per-component times/energies round independently, so sum them the same
  // way the run does.
  const device::Device ref(device::budget_phone());
  Duration expected_time;
  Energy expected_energy;
  for (const auto& c : g.components()) {
    expected_time += ref.exec_time(c.work);
    expected_energy += ref.exec_energy(c.work);
  }
  EXPECT_EQ(r.makespan, expected_time);
  EXPECT_EQ(r.local_compute, r.makespan);
  EXPECT_TRUE(r.cloud_cost.is_zero());
  EXPECT_EQ(r.remote_invocations, 0u);
  EXPECT_TRUE(r.transfer.is_zero());
  EXPECT_EQ(r.device_energy, expected_energy);
}

TEST(Execute, OffloadedPlanBeatsLocalForComputeHeavyApp) {
  Fixture fx;
  const auto g = app::workloads::ml_batch_training();
  const auto local_plan =
      fx.controller.prepare(g, partition::LocalOnlyPartitioner{});
  const auto local_run = fx.controller.execute(local_plan, g);
  const auto cut_plan =
      fx.controller.prepare(g, partition::MinCutPartitioner{});
  const auto cut_run = fx.controller.execute(cut_plan, g);

  EXPECT_LT(cut_run.makespan, local_run.makespan);
  EXPECT_LT(cut_run.device_energy, local_run.device_energy);
  EXPECT_GT(cut_run.cloud_cost, Money::zero());
  EXPECT_GT(cut_run.remote_invocations, 0u);
  EXPECT_GT(cut_run.transfer, Duration::zero());
}

TEST(Execute, PredictionTracksMeasurementOnWarmRuns) {
  Fixture fx;
  const auto g = app::workloads::ml_batch_training();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  (void)fx.controller.execute(plan, g);  // warm the instances
  const auto warm = fx.controller.execute(plan, g);
  // The separable model and the simulator agree within 20% once cold
  // starts are out of the picture (fixed links, sequential execution).
  const double predicted = plan.predicted.latency.to_seconds();
  const double measured = warm.makespan.to_seconds();
  EXPECT_NEAR(measured / predicted, 1.0, 0.2);
}

TEST(Execute, ColdThenWarmRunsGetFaster) {
  Fixture fx;
  const auto g = app::workloads::ml_batch_training();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  const auto first = fx.controller.execute(plan, g);
  const auto second = fx.controller.execute(plan, g);
  EXPECT_GT(first.cold_starts, 0u);
  EXPECT_EQ(second.cold_starts, 0u);
  EXPECT_LT(second.makespan, first.makespan);
}

TEST(Execute, EgressIsChargedOnDownloads) {
  Fixture fx;
  const auto g = app::workloads::ml_batch_training();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  const auto r = fx.controller.execute(plan, g);
  // The run downloads the compressed model (and any boundary data), so the
  // cloud bill must exceed pure invocation cost.
  Money invocation_only;
  const auto st = fx.platform.stats();
  invocation_only = st.exec_cost + st.request_cost;
  EXPECT_GT(r.cloud_cost, invocation_only - Money::nano_usd(1));
}

TEST(Execute, AsyncRunsCanOverlap) {
  Fixture fx;
  const auto g = app::workloads::photo_backup();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  int done = 0;
  for (int i = 0; i < 3; ++i)
    fx.controller.execute_async(plan, g,
                                [&](const ExecutionReport&) { ++done; });
  fx.sim.run();
  EXPECT_EQ(done, 3);
}

// A run's record is released before `done` fires, so `done` may start the
// next run, which takes the released slot and resets it. The report `done`
// received must not be a view into that record.
TEST(Execute, DoneMayStartTheNextRunOnTheReleasedSlot) {
  Fixture fx;
  const auto g = app::workloads::photo_backup();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  ASSERT_GT(plan.partition.remote_count(), 0u);
  std::vector<ExecutionReport> reports;
  fx.controller.execute_async(plan, g, [&](const ExecutionReport& first) {
    const ExecutionReport before = first;
    fx.controller.execute_async(
        plan, g, [&](const ExecutionReport& r) { reports.push_back(r); });
    EXPECT_EQ(first.makespan, before.makespan);
    EXPECT_EQ(first.device_energy, before.device_energy);
    EXPECT_EQ(first.local_compute, before.local_compute);
    EXPECT_EQ(first.remote_invocations, before.remote_invocations);
    EXPECT_EQ(first.cold_starts, before.cold_starts);
    reports.push_back(first);
  });
  fx.sim.run();
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].remote_invocations, plan.partition.remote_count());
  EXPECT_EQ(reports[1].remote_invocations, plan.partition.remote_count());
  EXPECT_GT(reports[0].cold_starts, 0u);
  EXPECT_EQ(reports[1].cold_starts, 0u);  // the chained run found them warm
}

TEST(Execute, MismatchedPlanRejected) {
  Fixture fx;
  const auto g = app::workloads::photo_backup();
  const auto other = app::workloads::nightly_etl();
  const auto plan = fx.controller.prepare(g, partition::LocalOnlyPartitioner{});
  EXPECT_THROW((void)fx.controller.execute(plan, other), ContractViolation);
}

// Regression: prepare() used to register a brand-new function set on every
// call, so replanning the same app double-billed its cold starts and grew
// the platform without bound. Deployment is now idempotent per plan
// fingerprint.
TEST(Prepare, IdenticalPlanReusesDeployedFunctions) {
  Fixture fx;
  const auto g = app::workloads::ml_batch_training();
  const partition::MinCutPartitioner mincut;

  const auto first = fx.controller.prepare(g, mincut);
  const std::size_t deployed = fx.platform.function_count();
  (void)fx.controller.execute(first, g);
  const std::uint64_t colds_after_first = fx.platform.stats().cold_starts;
  EXPECT_GT(colds_after_first, 0u);

  const auto second = fx.controller.prepare(g, mincut);
  EXPECT_EQ(fx.platform.function_count(), deployed);
  EXPECT_EQ(second.function_of, first.function_of);

  // The reused functions keep their warm instances: a prompt second run
  // pays no cold starts (previously every replan cold-started afresh).
  (void)fx.controller.execute(second, g);
  EXPECT_EQ(fx.platform.stats().cold_starts, colds_after_first);
}

// A different placement for the same app is a different fingerprint and
// must deploy its own functions rather than reuse the memo.
TEST(Prepare, DifferentPartitionDeploysFresh) {
  Fixture fx;
  const auto g = app::workloads::ml_batch_training();
  (void)fx.controller.prepare(g, partition::MinCutPartitioner{});
  const std::size_t after_mincut = fx.platform.function_count();
  (void)fx.controller.prepare(g, partition::RemoteAllPartitioner{});
  EXPECT_GT(fx.platform.function_count(), after_mincut);
}

// Memory sizing is memoised on MemoryOptimizer::choose's exact inputs.
// One long-lived controller plans a seeded interleaving of graphs that
// share names and component ids but not work (with_work_scaled copies) and
// of caller environments that move the remote speed, hence the deadline.
// Every plan must size exactly as a fresh controller on a fresh platform
// does, and as a direct choose() call does; a memo keyed on graph or
// component identity fails here.
TEST(Prepare, MemoisedSizingMatchesFreshSweeps) {
  Rng rng(16);
  std::vector<app::TaskGraph> graphs = app::workloads::all();
  const std::size_t first_dag = graphs.size();
  for (std::size_t i = 0; i < 8; ++i) {
    app::GeneratorParams p;
    p.components = 8 + 8 * i;
    graphs.push_back(app::layered_random(4, p, rng.fork(i)));
  }
  for (std::size_t i = first_dag; i < first_dag + 8; ++i)
    graphs.push_back(graphs[i].with_work_scaled(rng.uniform(0.005, 2.0)));
  const Frequency speeds[] = {Frequency::gigahertz(1.25),
                              Frequency::gigahertz(2.5),
                              Frequency::gigahertz(5.0)};

  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };

  Fixture fx;
  const partition::MinCutPartitioner mincut;
  std::size_t sized = 0;
  for (int round = 0; round < 240; ++round) {
    const app::TaskGraph& g = graphs[pick(graphs.size())];
    partition::Environment env = fx.controller.make_environment(g);
    env.remote_speed = speeds[pick(std::size(speeds))];
    const DeploymentPlan plan = fx.controller.prepare(g, mincut, env);

    Fixture fresh;
    const DeploymentPlan expected = fresh.controller.prepare(g, mincut, env);
    ASSERT_EQ(plan.partition, expected.partition) << g.name();
    EXPECT_EQ(plan.memory_of, expected.memory_of)
        << g.name() << " at " << env.remote_speed.count_hertz() << " Hz";

    const alloc::MemoryOptimizer optimizer(fresh.platform);
    for (app::ComponentId id = 0; id < g.component_count(); ++id) {
      if (!plan.is_remote(id)) continue;
      const app::Component& c = g.component(id);
      const auto choice =
          optimizer.choose(c.work, c.memory, c.parallel_fraction,
                           c.work / env.remote_speed * 1.05);
      EXPECT_EQ(plan.memory_of[id], choice.chosen.memory)
          << g.name() << " component " << c.name;
      ++sized;
    }
  }
  EXPECT_GT(sized, 1000u);
}

// A parallel fraction choose() would reject must not reach the sizing
// memo: a NaN key compares equal to an entry with the same work, floor
// and deadline, and would reuse its size instead of failing.
TEST(Prepare, NanParallelFractionFailsWithAWarmMemo) {
  Fixture fx;
  const partition::RemoteAllPartitioner remote_all;
  const app::TaskGraph photo = app::workloads::photo_backup();
  ASSERT_FALSE(photo.component(1).pinned_local);
  (void)fx.controller.prepare(photo, remote_all);  // sizes component 1
  app::TaskGraph g("nan");
  app::Component c = photo.component(1);
  c.parallel_fraction = std::numeric_limits<double>::quiet_NaN();
  (void)g.add_component(c);
  EXPECT_THROW((void)fx.controller.prepare(g, remote_all), ContractViolation);
}

TEST(Controller, PrepareRejectsCyclicGraphBeforeDeploying) {
  Fixture fx;
  app::TaskGraph g("cycle");
  const app::Component c{"c", Cycles::giga(5), DataSize::megabytes(256),
                         DataSize::megabytes(25)};
  const app::ComponentId a = g.add_component(c);
  const app::ComponentId b = g.add_component(c);
  g.add_flow(a, b, DataSize::kilobytes(1));
  g.add_flow(b, a, DataSize::kilobytes(1));
  const partition::RemoteAllPartitioner remote_all;
  EXPECT_THROW((void)fx.controller.prepare(g, remote_all), ConfigError);
  EXPECT_EQ(fx.platform.function_count(), 0u);
}

}  // namespace
}  // namespace ntco::core
