#include <gtest/gtest.h>

#include "ntco/app/generators.hpp"
#include "ntco/app/workloads.hpp"
#include "ntco/common/error.hpp"
#include "ntco/partition/cost_model.hpp"
#include "ntco/partition/max_flow.hpp"
#include "ntco/partition/partitioners.hpp"

namespace ntco::partition {
namespace {

Environment fast_cloud_env() {
  Environment env;
  env.device = device::budget_phone();
  env.remote_speed = Frequency::gigahertz(2.5);
  env.remote_overhead = Duration::millis(5);
  env.uplink = DataRate::megabits_per_second(10);
  env.downlink = DataRate::megabits_per_second(30);
  env.uplink_latency = Duration::millis(25);
  env.downlink_latency = Duration::millis(25);
  return env;
}

TEST(Partition, BasicsAndPins) {
  auto g = app::workloads::photo_backup();
  auto p = Partition::all_local(g.component_count());
  EXPECT_EQ(p.remote_count(), 0u);
  EXPECT_TRUE(p.respects_pins(g));
  p.placement[1] = Placement::Remote;
  EXPECT_EQ(p.remote_count(), 1u);
  EXPECT_EQ(p.to_string(), "LRLLLL");
  p.placement[0] = Placement::Remote;  // component 0 is pinned
  EXPECT_FALSE(p.respects_pins(g));
}

TEST(CostModel, LocalOnlyBreakdownMatchesDeviceMath) {
  const auto g = app::workloads::photo_backup();
  const CostModel model(g, fast_cloud_env(), Objective::latency());
  const auto b = model.breakdown(Partition::all_local(g.component_count()));
  // All components at 1.4 GHz, no transfers, no money. Per-component
  // execution times round up to whole microseconds, so sum them the same
  // way.
  const device::Device ue(device::budget_phone());
  Duration expected;
  for (const auto& c : g.components()) expected += ue.exec_time(c.work);
  EXPECT_EQ(b.latency, expected);
  EXPECT_TRUE(b.money.is_zero());
  EXPECT_GT(b.energy, Energy::zero());
  EXPECT_DOUBLE_EQ(b.objective, b.latency.to_seconds());
}

TEST(CostModel, RemoteExecutionIsFasterButCostsMoney) {
  const auto g = app::workloads::ml_batch_training();
  const CostModel model(g, fast_cloud_env(), Objective::latency());
  for (app::ComponentId id = 0; id < g.component_count(); ++id) {
    if (g.component(id).pinned_local) continue;
    // 2.5 GHz cloud beats the 1.4 GHz phone on every component.
    EXPECT_LT(model.remote_cost(id), model.local_cost(id)) << id;
  }
}

TEST(CostModel, TransferCostScalesWithBytesAndDirection) {
  const auto g = app::workloads::video_transcode();
  const CostModel model(g, fast_cloud_env(), Objective::latency());
  // Flow 0 is 120 MB, flow 4 is 35 MB: upload cost must order accordingly.
  EXPECT_GT(model.upload_cost(0), model.upload_cost(4));
  // Downlink is 3x faster than uplink, so download < upload per flow.
  EXPECT_LT(model.download_cost(0), model.upload_cost(0));
}

TEST(CostModel, EvaluateRejectsPinViolations) {
  const auto g = app::workloads::photo_backup();
  const CostModel model(g, fast_cloud_env(), Objective::latency());
  auto p = Partition::all_local(g.component_count());
  p.placement[0] = Placement::Remote;  // pinned
  EXPECT_THROW((void)model.evaluate(p), ContractViolation);
}

TEST(CostModel, MoneyObjectiveMakesLocalFree) {
  const auto g = app::workloads::photo_backup();
  const CostModel model(g, fast_cloud_env(), Objective::cost());
  for (app::ComponentId id = 0; id < g.component_count(); ++id)
    EXPECT_DOUBLE_EQ(model.local_cost(id), 0.0);
  // With a money-only objective, all-local is optimal.
  const MinCutPartitioner mincut;
  EXPECT_EQ(mincut.plan(model).remote_count(), 0u);
}

TEST(MaxFlow, TextbookNetwork) {
  // Classic 6-node example with max flow 19.
  MaxFlow f(6);
  f.add_arc(0, 1, 10);
  f.add_arc(0, 2, 10);
  f.add_arc(1, 2, 2);
  f.add_arc(1, 3, 4);
  f.add_arc(1, 4, 8);
  f.add_arc(2, 4, 9);
  f.add_arc(4, 3, 6);
  f.add_arc(3, 5, 10);
  f.add_arc(4, 5, 10);
  EXPECT_DOUBLE_EQ(f.solve(0, 5), 19.0);
  const auto side = f.min_cut_source_side(0);
  EXPECT_TRUE(side[0]);
  EXPECT_FALSE(side[5]);
}

TEST(MaxFlow, DisconnectedSinkHasZeroFlow) {
  MaxFlow f(3);
  f.add_arc(0, 1, 5);
  EXPECT_DOUBLE_EQ(f.solve(0, 2), 0.0);
  const auto side = f.min_cut_source_side(0);
  EXPECT_TRUE(side[1]);
  EXPECT_FALSE(side[2]);
}

TEST(MaxFlow, InfiniteCapacityPathIsUnbounded) {
  MaxFlow f(2);
  f.add_arc(0, 1, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(f.solve(0, 1)));
}

TEST(MaxFlow, ParallelArcsAddTheirCapacities) {
  // Two arcs 0->1 (2 + 3) feed one wide arc 1->2: both must saturate.
  MaxFlow f(3);
  f.add_arc(0, 1, 2);
  f.add_arc(1, 2, 10);
  f.add_arc(0, 1, 3);
  EXPECT_DOUBLE_EQ(f.solve(0, 2), 5.0);
  EXPECT_EQ(f.min_cut_source_side(0), (std::vector<bool>{true, false, false}));
}

TEST(MaxFlow, ArcsInBothDirectionsBetweenOnePair) {
  // s=0, a=1, b=2, t=3; a<->b carries 3 one way and 2 the other. The cut
  // {s->a 1, b->a 2, b->t 1} = 4 leaves S = {s, b}: b's way to a is
  // saturated, and a->b carries nothing, so its reverse residual is 0.
  MaxFlow f(4);
  f.add_arc(0, 1, 1);
  f.add_arc(0, 2, 4);
  f.add_arc(1, 2, 3);
  f.add_arc(2, 1, 2);
  f.add_arc(1, 3, 5);
  f.add_arc(2, 3, 1);
  EXPECT_DOUBLE_EQ(f.solve(0, 3), 4.0);
  EXPECT_EQ(f.min_cut_source_side(0),
            (std::vector<bool>{true, false, true, false}));
}

TEST(MaxFlow, ArcIntoTheSourceCarriesNothing) {
  // 1->0 can never carry s-t flow; 0->1 keeps 1 unit of residual, so node
  // 1 stays on the source side behind the saturated 1->2.
  MaxFlow f(3);
  f.add_arc(1, 0, 5);
  f.add_arc(0, 1, 3);
  f.add_arc(1, 2, 2);
  EXPECT_DOUBLE_EQ(f.solve(0, 2), 2.0);
  EXPECT_EQ(f.min_cut_source_side(0), (std::vector<bool>{true, true, false}));
}

TEST(MaxFlow, InterleavedInsertionGroupsEachNodesArcs) {
  // s=0, a=1, b=2, t=3. Node a's arcs are added between s's and b's: the
  // adjacency must still give a all of them. Flow 4 = a->t 2 + b->t 2,
  // and a and b keep residual paths from s (s->a 3 of 4, a->b 1 of 2).
  MaxFlow f(4);
  f.add_arc(0, 1, 3);
  f.add_arc(1, 3, 2);
  f.add_arc(0, 2, 1);
  f.add_arc(1, 2, 2);
  f.add_arc(2, 3, 2);
  f.add_arc(0, 1, 1);
  EXPECT_DOUBLE_EQ(f.solve(0, 3), 4.0);
  EXPECT_EQ(f.min_cut_source_side(0),
            (std::vector<bool>{true, true, true, false}));
}

TEST(Partitioners, LocalAndRemoteBaselines) {
  const auto g = app::workloads::nightly_etl();
  const CostModel model(g, fast_cloud_env(), Objective::latency());
  EXPECT_EQ(LocalOnlyPartitioner().plan(model).remote_count(), 0u);
  const auto remote = RemoteAllPartitioner().plan(model);
  EXPECT_EQ(remote.remote_count(),
            g.component_count() - g.pinned_count());
  EXPECT_TRUE(remote.respects_pins(g));
}

TEST(Partitioners, RandomRespectsPinsAndProbability) {
  const auto g = app::workloads::nightly_etl();
  const CostModel model(g, fast_cloud_env(), Objective::latency());
  const RandomPartitioner all(1.0, Rng(1));
  EXPECT_EQ(all.plan(model).remote_count(),
            g.component_count() - g.pinned_count());
  const RandomPartitioner none(0.0, Rng(1));
  EXPECT_EQ(none.plan(model).remote_count(), 0u);
}

TEST(Partitioners, GreedyNeverWorseThanBaselines) {
  for (const auto& g : app::workloads::all()) {
    const CostModel model(g, fast_cloud_env(),
                          Objective::non_time_critical());
    const double greedy = model.evaluate(GreedyPartitioner().plan(model));
    const double local = model.evaluate(LocalOnlyPartitioner().plan(model));
    const double remote = model.evaluate(RemoteAllPartitioner().plan(model));
    EXPECT_LE(greedy, local + 1e-9) << g.name();
    EXPECT_LE(greedy, remote + 1e-9) << g.name();
  }
}

TEST(Partitioners, MinCutMatchesExhaustiveOnWorkloads) {
  for (const auto& g : app::workloads::all()) {
    for (const auto obj :
         {Objective::latency(), Objective::energy(),
          Objective::non_time_critical()}) {
      const CostModel model(g, fast_cloud_env(), obj);
      const double opt = model.evaluate(ExhaustivePartitioner().plan(model));
      const double cut = model.evaluate(MinCutPartitioner().plan(model));
      EXPECT_NEAR(cut, opt, 1e-9) << g.name();
    }
  }
}

/// Property: on random DAGs under random environments, min-cut is exactly
/// optimal (matches exhaustive) and all searchers respect pins.
class MinCutOptimality : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinCutOptimality, MatchesExhaustiveOnRandomGraphs) {
  Rng rng(GetParam());
  app::GeneratorParams gp;
  gp.components = 4 + static_cast<std::size_t>(rng.uniform_int(0, 8));
  gp.mean_work = Cycles::mega(
      static_cast<std::uint64_t>(rng.uniform_int(50, 5000)));
  gp.mean_flow = DataSize::kilobytes(
      static_cast<std::uint64_t>(rng.uniform_int(10, 3000)));
  const auto g = app::layered_random(
      2 + static_cast<std::size_t>(rng.uniform_int(0, 2)), gp, rng.fork(1));

  Environment env = fast_cloud_env();
  env.uplink = DataRate::megabits_per_second(
      static_cast<std::uint64_t>(rng.uniform_int(1, 100)));
  env.downlink = env.uplink * 2.0;
  env.remote_speed = Frequency::gigahertz(rng.uniform(1.0, 8.0));

  const Objective obj{rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.2),
                      rng.uniform(0.0, 5.0)};
  const CostModel model(g, env, obj);

  const auto exact = ExhaustivePartitioner().plan(model);
  const auto cut = MinCutPartitioner().plan(model);
  EXPECT_TRUE(cut.respects_pins(g));
  EXPECT_NEAR(model.evaluate(cut), model.evaluate(exact), 1e-9)
      << "graph=" << g.name() << " cut=" << cut.to_string()
      << " exact=" << exact.to_string();

  // Searchers are never better than the optimum (sanity of evaluate()).
  const double opt = model.evaluate(exact);
  EXPECT_GE(model.evaluate(GreedyPartitioner().plan(model)), opt - 1e-9);
  AnnealingPartitioner::Params ap;
  ap.iterations = 2000;
  EXPECT_GE(model.evaluate(AnnealingPartitioner(ap, rng.fork(2)).plan(model)),
            opt - 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MinCutOptimality,
                         ::testing::Range<std::uint64_t>(0, 40));

TEST(Partitioners, AnnealingFindsOptimumOnSmallGraphs) {
  const auto g = app::workloads::photo_backup();
  const CostModel model(g, fast_cloud_env(), Objective::latency());
  const double opt = model.evaluate(ExhaustivePartitioner().plan(model));
  AnnealingPartitioner::Params p;
  p.iterations = 5000;
  const double got =
      model.evaluate(AnnealingPartitioner(p, Rng(3)).plan(model));
  EXPECT_NEAR(got, opt, opt * 0.05);
}

TEST(Partitioners, ExhaustiveRefusesHugeGraphs) {
  app::GeneratorParams gp;
  gp.components = 40;
  gp.pin_fraction = 0.0;
  const auto g = app::layered_random(4, gp, Rng(4));
  const CostModel model(g, fast_cloud_env(), Objective::latency());
  EXPECT_THROW((void)ExhaustivePartitioner().plan(model), ConfigError);
}

TEST(Partitioners, OffloadDecisionFollowsBandwidth) {
  // ML training (compute-heavy) offloads even on 3G; video transcode
  // (transfer-heavy) stays local on a slow link but offloads on a fast one.
  const auto ml = app::workloads::ml_batch_training();
  Environment slow = fast_cloud_env();
  slow.uplink = DataRate::megabits_per_second(1);
  slow.downlink = DataRate::megabits_per_second(4);
  {
    const CostModel model(ml, slow, Objective::latency());
    EXPECT_GT(MinCutPartitioner().plan(model).remote_count(), 0u);
  }
  const auto video = app::workloads::video_transcode();
  {
    const CostModel model(video, slow, Objective::latency());
    EXPECT_EQ(MinCutPartitioner().plan(model).remote_count(), 0u);
  }
  Environment fast = fast_cloud_env();
  fast.uplink = DataRate::megabits_per_second(500);
  fast.downlink = DataRate::megabits_per_second(500);
  fast.remote_speed = Frequency::gigahertz(8.0);
  {
    const CostModel model(video, fast, Objective::latency());
    EXPECT_GT(MinCutPartitioner().plan(model).remote_count(), 0u);
  }
}

TEST(Partitioners, StandardPortfolioIsComplete) {
  const auto portfolio = standard_portfolio(42);
  ASSERT_EQ(portfolio.size(), 6u);
  const auto g = app::workloads::photo_backup();
  const CostModel model(g, fast_cloud_env(), Objective::latency());
  for (const auto& p : portfolio) {
    EXPECT_FALSE(p->name().empty());
    EXPECT_TRUE(p->plan(model).respects_pins(g)) << p->name();
  }
}

}  // namespace
}  // namespace ntco::partition
