// Three-way (device/edge/cloud) partitioning: cost-model sanity, greedy and
// alpha-expansion quality against exhaustive ground truth, and the
// structural expectations (edge wins latency, cloud wins money).

#include <gtest/gtest.h>

#include <limits>

#include "ntco/app/generators.hpp"
#include "ntco/app/workloads.hpp"
#include "ntco/common/error.hpp"
#include "ntco/partition/multi_target.hpp"

namespace ntco::partition {
namespace {

MultiCostModel latency_model(const app::TaskGraph& g,
                             const MultiEnvironment& env) {
  return MultiCostModel(g, env, 1.0, 0.0, 0.0);
}

TEST(MultiPartition, BasicsAndPins) {
  const auto g = app::workloads::photo_backup();
  auto p = MultiPartition::all_device(g.component_count());
  EXPECT_EQ(p.count(Site::Device), 6u);
  EXPECT_TRUE(p.respects_pins(g));
  p.site[1] = Site::Edge;
  p.site[2] = Site::Cloud;
  EXPECT_EQ(p.to_string(), "DECDDD");
  p.site[0] = Site::Cloud;  // pinned component
  EXPECT_FALSE(p.respects_pins(g));
  EXPECT_STREQ(to_string(Site::Edge), "edge");
}

TEST(MultiCostModel, SiteCostsOrderAsExpected) {
  const auto g = app::workloads::ml_batch_training();
  const auto env = default_multi_environment();
  const auto m = latency_model(g, env);
  for (app::ComponentId id = 0; id < g.component_count(); ++id) {
    if (g.component(id).pinned_local) continue;
    // Edge (3 GHz, 2 ms overhead) beats cloud (2.5 GHz, 5 ms) beats the
    // 1.4 GHz phone on pure latency.
    EXPECT_LT(m.site_cost(id, Site::Edge), m.site_cost(id, Site::Cloud));
    EXPECT_LT(m.site_cost(id, Site::Cloud), m.site_cost(id, Site::Device));
  }
}

TEST(MultiCostModel, MoneyOrdersTheOtherWay) {
  const auto g = app::workloads::ml_batch_training();
  const auto env = default_multi_environment();
  const MultiCostModel m(g, env, 0.0, 0.0, 1.0);
  for (app::ComponentId id = 0; id < g.component_count(); ++id) {
    EXPECT_DOUBLE_EQ(m.site_cost(id, Site::Device), 0.0);
    EXPECT_GT(m.site_cost(id, Site::Edge), 0.0);
    EXPECT_GT(m.site_cost(id, Site::Cloud), 0.0);
  }
}

TEST(MultiCostModel, TransferDependsOnSitePair) {
  const auto g = app::workloads::video_transcode();
  const auto env = default_multi_environment();
  const auto m = latency_model(g, env);
  // Same site is free; the LAN to the edge is much faster than the WAN to
  // the cloud; the backhaul is fastest of all.
  for (const auto s : kAllSites)
    EXPECT_DOUBLE_EQ(m.transfer_cost(0, s, s), 0.0);
  EXPECT_LT(m.transfer_cost(0, Site::Device, Site::Edge),
            m.transfer_cost(0, Site::Device, Site::Cloud));
  EXPECT_LT(m.transfer_cost(0, Site::Edge, Site::Cloud),
            m.transfer_cost(0, Site::Device, Site::Cloud));
}

TEST(MultiCostModel, RefusesNegativeOrNonFiniteWeights) {
  const auto g = app::workloads::photo_backup();
  const auto env = default_multi_environment();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {-1.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_THROW((void)MultiCostModel(g, env, bad, 0.0, 0.0),
                 ContractViolation)
        << bad;
    EXPECT_THROW((void)MultiCostModel(g, env, 0.0, bad, 0.0),
                 ContractViolation)
        << bad;
    EXPECT_THROW((void)MultiCostModel(g, env, 0.0, 0.0, bad),
                 ContractViolation)
        << bad;
  }
}

TEST(MultiCostModel, EvaluateRejectsPinViolations) {
  const auto g = app::workloads::photo_backup();
  const auto m = latency_model(g, default_multi_environment());
  auto p = MultiPartition::all_device(g.component_count());
  p.site[0] = Site::Edge;
  EXPECT_THROW((void)m.evaluate(p), ContractViolation);
}

TEST(MultiPartitioners, LatencyObjectivePrefersTheEdge) {
  const auto g = app::workloads::ml_batch_training();
  const auto m = latency_model(g, default_multi_environment());
  const auto p = MultiExhaustivePartitioner().plan(m);
  EXPECT_GT(p.count(Site::Edge), 0u);
  EXPECT_EQ(p.count(Site::Cloud), 0u);  // edge dominates cloud on latency
}

TEST(MultiPartitioners, MoneyObjectivePrefersDeviceThenCloud) {
  const auto g = app::workloads::ml_batch_training();
  // Pure money: the device is free, so everything stays on it.
  const MultiCostModel pure(g, default_multi_environment(), 0.0, 0.0, 1.0);
  const auto all_dev = MultiExhaustivePartitioner().plan(pure);
  EXPECT_EQ(all_dev.count(Site::Device), g.component_count());

  // Money-dominant with a whisper of latency: compute lands on the cheap
  // serverless cloud ($2.9e-5/s), not the amortised edge ($8.3e-5/s); the
  // edge appears at most as an incidental relay hop.
  const MultiCostModel m(g, default_multi_environment(), 0.0001, 0.0, 1.0);
  const auto p = MultiExhaustivePartitioner().plan(m);
  EXPECT_GT(p.count(Site::Cloud), 0u);
  EXPECT_GT(p.count(Site::Cloud), p.count(Site::Edge));
}

TEST(MultiPartitioners, ThreeWayNeverWorseThanTwoWay) {
  // Restricting the label set cannot help: the 3-way optimum must be at
  // least as good as device+cloud-only and device+edge-only optima.
  for (const auto& g : app::workloads::all()) {
    const auto m = latency_model(g, default_multi_environment());
    const auto p3 = MultiExhaustivePartitioner().plan(m);
    const double v3 = m.evaluate(p3);

    // Two-way optima via exhaustive search over the restricted label sets.
    auto restricted_best = [&](Site remote) {
      MultiPartition best = MultiPartition::all_device(g.component_count());
      double best_v = m.evaluate(best);
      MultiPartition c = best;
      const std::uint64_t combos = 1ULL << g.component_count();
      for (std::uint64_t mask = 1; mask < combos; ++mask) {
        bool ok = true;
        for (app::ComponentId id = 0; id < g.component_count(); ++id) {
          const bool rem = (mask >> id) & 1;
          if (rem && g.component(id).pinned_local) {
            ok = false;
            break;
          }
          c.site[id] = rem ? remote : Site::Device;
        }
        if (!ok) continue;
        const double v = m.evaluate(c);
        if (v < best_v) {
          best_v = v;
          best = c;
        }
      }
      return best_v;
    };
    EXPECT_LE(v3, restricted_best(Site::Cloud) + 1e-9) << g.name();
    EXPECT_LE(v3, restricted_best(Site::Edge) + 1e-9) << g.name();
  }
}

TEST(MultiPartitioners, GreedyAndAlphaRespectPinsOnWorkloads) {
  for (const auto& g : app::workloads::all()) {
    const auto m = latency_model(g, default_multi_environment());
    EXPECT_TRUE(AlphaExpansionPartitioner().plan(m).respects_pins(g));
  }
}

TEST(MultiPartitioners, AlphaExpansionMatchesExhaustiveOnWorkloads) {
  for (const auto& g : app::workloads::all()) {
    for (const double money_w : {0.0, 1.0, 5.0}) {
      const MultiCostModel m(g, default_multi_environment(), 1.0, 0.05,
                             money_w);
      const double opt = m.evaluate(MultiExhaustivePartitioner().plan(m));
      const double alpha = m.evaluate(AlphaExpansionPartitioner().plan(m));
      EXPECT_LE(alpha, opt * 1.02 + 1e-9) << g.name() << " w=" << money_w;
      EXPECT_GE(alpha, opt - 1e-9) << g.name();
    }
  }
}

class AlphaExpansionProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(AlphaExpansionProperty, NearOptimalOnRandomGraphs) {
  Rng rng(GetParam());
  app::GeneratorParams gp;
  gp.components = 5 + static_cast<std::size_t>(rng.uniform_int(0, 5));
  gp.mean_work =
      Cycles::mega(static_cast<std::uint64_t>(rng.uniform_int(100, 5000)));
  gp.mean_flow = DataSize::kilobytes(
      static_cast<std::uint64_t>(rng.uniform_int(20, 2000)));
  const auto g = app::layered_random(
      2 + static_cast<std::size_t>(rng.uniform_int(0, 2)), gp, rng.fork(1));

  MultiEnvironment env = default_multi_environment();
  env.cloud.uplink = DataRate::megabits_per_second(
      static_cast<std::uint64_t>(rng.uniform_int(2, 60)));
  env.cloud.downlink = env.cloud.uplink * 3.0;
  env.edge.speed = Frequency::gigahertz(rng.uniform(1.5, 5.0));

  const MultiCostModel m(g, env, rng.uniform(0.1, 1.0), rng.uniform(0.0, 0.1),
                         rng.uniform(0.0, 3.0));
  const double opt = m.evaluate(MultiExhaustivePartitioner().plan(m));
  const auto alpha_plan = AlphaExpansionPartitioner().plan(m);
  const double alpha = m.evaluate(alpha_plan);

  EXPECT_TRUE(alpha_plan.respects_pins(g));
  EXPECT_GE(alpha, opt - 1e-9);
  // Alpha-expansion is near-optimal in practice; allow a small slack for
  // truncated non-metric instances.
  EXPECT_LE(alpha, opt * 1.02 + 1e-9)
      << g.name() << " alpha=" << alpha_plan.to_string();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AlphaExpansionProperty,
                         ::testing::Range<std::uint64_t>(0, 30));

TEST(MultiPartitioners, ExhaustiveRefusesHugeGraphs) {
  app::GeneratorParams gp;
  gp.components = 30;
  gp.pin_fraction = 0.0;
  const auto g = app::layered_random(4, gp, Rng(9));
  const auto m = latency_model(g, default_multi_environment());
  EXPECT_THROW((void)MultiExhaustivePartitioner().plan(m), ConfigError);
}

}  // namespace
}  // namespace ntco::partition
