// Edge cases across modules that the per-module suites do not cover.

#include <gtest/gtest.h>

#include <memory>

#include "ntco/app/workloads.hpp"
#include "ntco/common/error.hpp"
#include "ntco/partition/partitioners.hpp"
#include "ntco/serverless/platform.hpp"
#include "ntco/sim/simulator.hpp"

namespace ntco {
namespace {

TEST(SimulatorEdge, CancelFromWithinASimultaneousHandler) {
  // Two events at the same timestamp; the first cancels the second.
  sim::Simulator sim;
  bool second_fired = false;
  sim::EventId second = 0;
  sim.schedule_after(Duration::millis(1), [&] { sim.cancel(second); });
  second = sim.schedule_after(Duration::millis(1),
                              [&] { second_fired = true; });
  sim.run();
  EXPECT_FALSE(second_fired);
}

TEST(SimulatorEdge, HandlerExceptionPropagatesAndStateStaysSane) {
  sim::Simulator sim;
  auto token = std::make_shared<int>(1);
  sim.schedule_after(Duration::millis(1), [token] {
    if (*token > 0) throw Error("handler blew up");
  });
  sim.schedule_after(Duration::millis(2), [] {});
  EXPECT_THROW(sim.run(), Error);
  // The failed event was consumed and its handler destroyed with its
  // captures; the remaining one still runs.
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_EQ(sim.pending(), 1u);
  EXPECT_EQ(sim.run(), 1u);
}

TEST(SimulatorEdge, ManySimultaneousCancellationsKeepPendingAccurate) {
  sim::Simulator sim;
  std::vector<sim::EventId> ids;
  for (int i = 0; i < 100; ++i)
    ids.push_back(sim.schedule_after(Duration::millis(5), [] {}));
  for (std::size_t i = 0; i < ids.size(); i += 2) sim.cancel(ids[i]);
  EXPECT_EQ(sim.pending(), 50u);
  EXPECT_EQ(sim.run(), 50u);
}

TEST(PlatformEdge, RedeployPreservesProvisionedTarget) {
  sim::Simulator sim;
  serverless::Platform p(sim, {});
  const auto id = p.deploy({"fn", DataSize::megabytes(512),
                            DataSize::megabytes(10)});
  p.set_provisioned_concurrency(id, 3);
  EXPECT_EQ(p.warm_count(id), 3u);
  p.redeploy(id, {"fn-v2", DataSize::megabytes(1024),
                  DataSize::megabytes(12)});
  // The new version keeps the provisioned capacity commitment.
  EXPECT_EQ(p.warm_count(id), 3u);
  int colds = 0;
  for (int i = 0; i < 3; ++i)
    p.invoke(id, Cycles::giga(1), [&](const serverless::InvocationResult& r) {
      if (r.cold_start) ++colds;
    });
  sim.run_until(TimePoint::origin() + Duration::minutes(1));
  EXPECT_EQ(colds, 0);
}

TEST(PlatformEdge, ProvisionedInstancesCountTowardAccountConcurrency) {
  sim::Simulator sim;
  serverless::PlatformConfig cfg;
  cfg.account_concurrency = 2;
  serverless::Platform p(sim, cfg);
  const auto id = p.deploy({"fn", DataSize::megabytes(512),
                            DataSize::megabytes(10)});
  p.set_provisioned_concurrency(id, 2);
  int done = 0;
  for (int i = 0; i < 4; ++i)
    p.invoke(id, Cycles::giga(5),
             [&](const serverless::InvocationResult&) { ++done; });
  EXPECT_EQ(p.concurrency_in_use(), 2u);
  sim.run_until(TimePoint::origin() + Duration::minutes(5));
  EXPECT_EQ(done, 4);
  EXPECT_EQ(p.stats().peak_concurrency, 2u);
}

TEST(PlatformEdge, ShrinkingProvisionedPoolWhileBusyRetiresOnCompletion) {
  sim::Simulator sim;
  serverless::Platform p(sim, {});
  const auto id = p.deploy({"fn", DataSize::megabytes(512),
                            DataSize::megabytes(10)});
  p.set_provisioned_concurrency(id, 2);
  // Occupy both provisioned instances, then drop the target to zero.
  p.invoke(id, Cycles::giga(5), [](const serverless::InvocationResult&) {});
  p.invoke(id, Cycles::giga(5), [](const serverless::InvocationResult&) {});
  EXPECT_EQ(p.warm_count(id), 0u);
  p.set_provisioned_concurrency(id, 0);
  sim.run_until(TimePoint::origin() + Duration::minutes(1));
  // The busy instances retired instead of returning to the pool.
  EXPECT_EQ(p.warm_count(id), 0u);
}

TEST(PlatformEdge, ZeroWorkInvocationStillBillsTheQuantumAndRequest) {
  sim::Simulator sim;
  serverless::Platform p(sim, {});
  const auto id = p.deploy({"fn", DataSize::megabytes(512),
                            DataSize::megabytes(10)});
  Money cost;
  p.invoke(id, Cycles::zero(),
           [&](const serverless::InvocationResult& r) { cost = r.cost; });
  sim.run_until(TimePoint::origin() + Duration::minutes(1));
  const auto expected = p.invocation_cost(DataSize::megabytes(512),
                                          Duration::zero(),
                                          TimePoint::origin());
  EXPECT_EQ(cost, expected);
  EXPECT_GT(cost, Money::zero());  // request fee + one billing quantum
}

TEST(CostModelEdge, EgressMoneyAppearsOnlyOnDownloads) {
  const auto g = app::workloads::ml_batch_training();
  partition::Environment env;
  env.device = device::budget_phone();
  env.egress_price_per_gb = Money::from_usd(0.09);
  const partition::CostModel model(g, env, partition::Objective::cost());

  // Offload only 'train' (component 2): its in-flow uploads are free of
  // egress; its out-flows to local components pay egress on download.
  auto p = partition::Partition::all_local(g.component_count());
  p.placement[2] = partition::Placement::Remote;
  const auto b = model.breakdown(p);
  // Downloads: train->validate (8 MB) and train->compress (8 MB), plus
  // train's remote compute cost.
  const double egress_usd = 0.09 * 16e6 / 1e9;
  const double compute_usd =
      env.remote_price_per_second.to_usd() *
          (g.component(2).work / env.remote_speed).to_seconds() +
      env.price_per_invocation.to_usd();
  EXPECT_NEAR(b.money.to_usd(), egress_usd + compute_usd, 1e-6);
}

TEST(CostModelEdge, ZeroWeightObjectiveIsDegenerateButValid) {
  const auto g = app::workloads::photo_backup();
  partition::Environment env;
  env.device = device::budget_phone();
  const partition::CostModel model(g, env, partition::Objective{0, 0, 0});
  // Every partition scores zero; min-cut must still return a valid one.
  const auto plan = partition::MinCutPartitioner().plan(model);
  EXPECT_TRUE(plan.respects_pins(g));
  EXPECT_DOUBLE_EQ(model.evaluate(plan), 0.0);
}

TEST(WorkloadEdge, ScalingByHugeFactorDoesNotOverflow) {
  const auto g = app::workloads::photo_backup().with_work_scaled(1000.0);
  EXPECT_EQ(g.total_work(), Cycles::giga(17'680));
  const device::Device ue(device::budget_phone());
  EXPECT_GT(ue.exec_time(g.total_work()), Duration::hours(3));
}

}  // namespace
}  // namespace ntco
