// Three-way (device/edge/cloud) partitioning: cost-model sanity, greedy and
// alpha-expansion quality against exhaustive ground truth, and the
// structural expectations (edge wins latency, cloud wins money).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>

#include "ntco/app/generators.hpp"
#include "ntco/app/workloads.hpp"
#include "ntco/common/error.hpp"
#include "ntco/partition/multi_target.hpp"
#include "ntco/partition/partitioners.hpp"

namespace ntco::partition {
namespace {

MultiCostModel latency_model(const app::TaskGraph& g,
                             const MultiEnvironment& env) {
  return MultiCostModel(g, env, Objective::latency());
}

// The best device + `remote` plan's value under `m`, by enumerating every
// pin-respecting two-site plan.
double restricted_optimum(const MultiCostModel& m, Site remote) {
  const auto& g = m.graph();
  MultiPartition c = MultiPartition::all_device(g.component_count());
  double best = m.evaluate(c);
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
    if (ok) best = std::min(best, m.evaluate(c));
  }
  return best;
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
  const MultiCostModel m(g, env, Objective::cost());
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
    EXPECT_THROW((void)MultiCostModel(g, env, {bad, 0.0, 0.0}),
                 ContractViolation)
        << bad;
    EXPECT_THROW((void)MultiCostModel(g, env, {0.0, bad, 0.0}),
                 ContractViolation)
        << bad;
    EXPECT_THROW((void)MultiCostModel(g, env, {0.0, 0.0, bad}),
                 ContractViolation)
        << bad;
  }
}

TEST(MultiCostModel, RefusesMalformedEnvironments) {
  const auto g = app::workloads::photo_backup();
  auto zero_backhaul = default_multi_environment();
  zero_backhaul.backhaul_rate = DataRate::bits_per_second(0);
  auto negative_backhaul = default_multi_environment();
  negative_backhaul.backhaul_latency = Duration::micros(-1);
  auto two_devices = default_multi_environment();
  two_devices.edge.device = device::flagship_phone();
  for (const auto& env : {zero_backhaul, negative_backhaul, two_devices})
    EXPECT_THROW((void)MultiCostModel(g, env, Objective::latency()),
                 ContractViolation);
}

TEST(MultiCostModel, PricesEachSiteAsTheBinaryModelDoes) {
  // Every term that involves the UE is, bit for bit, the two-site model's
  // term for that site, on random graphs, sites and objectives.
  for (std::uint64_t seed = 0; seed < 500; ++seed) {
    Rng rng(seed);
    app::GeneratorParams gp;
    gp.components = 5 + static_cast<std::size_t>(rng.uniform_int(0, 20));
    gp.mean_work =
        Cycles::mega(static_cast<std::uint64_t>(rng.uniform_int(1, 5000)));
    gp.mean_flow = DataSize::kilobytes(
        static_cast<std::uint64_t>(rng.uniform_int(1, 5000)));
    const auto g = app::layered_random(
        2 + static_cast<std::size_t>(rng.uniform_int(0, 3)), gp, rng.fork(1));

    const device::DeviceSpec ue{"ue",
                                Frequency::gigahertz(rng.uniform(0.3, 3.5)),
                                Power::watts(rng.uniform(0.1, 5.0)),
                                Power::watts(rng.uniform(0.0, 1.0)),
                                Power::watts(rng.uniform(0.1, 3.0)),
                                Power::watts(rng.uniform(0.1, 3.0))};
    const auto random_site = [&] {
      Environment e;
      e.device = ue;
      e.remote_speed = Frequency::gigahertz(rng.uniform(0.5, 6.0));
      e.remote_overhead = Duration::micros(rng.uniform_int(0, 50'000));
      e.remote_price_per_second = Money::nano_usd(rng.uniform_int(0, 200'000));
      e.price_per_invocation = Money::nano_usd(rng.uniform_int(0, 1'000));
      e.uplink = DataRate::kilobits_per_second(
          static_cast<std::uint64_t>(rng.uniform_int(100, 1'000'000)));
      e.downlink = DataRate::kilobits_per_second(
          static_cast<std::uint64_t>(rng.uniform_int(100, 1'000'000)));
      e.uplink_latency = Duration::micros(rng.uniform_int(0, 100'000));
      e.downlink_latency = Duration::micros(rng.uniform_int(0, 100'000));
      e.egress_price_per_gb = Money::from_usd(rng.uniform(0.0, 0.2));
      return e;
    };
    MultiEnvironment env;
    env.edge = random_site();
    env.cloud = random_site();
    const Objective w{rng.uniform(0.0, 2.0), rng.uniform(0.0, 1.0),
                      rng.uniform(0.0, 5.0)};

    const MultiCostModel m(g, env, w);
    const CostModel edge(g, env.edge, w);
    const CostModel cloud(g, env.cloud, w);
    for (app::ComponentId id = 0; id < g.component_count(); ++id) {
      EXPECT_EQ(m.site_cost(id, Site::Device), cloud.local_cost(id)) << seed;
      EXPECT_EQ(m.site_cost(id, Site::Device), edge.local_cost(id)) << seed;
      EXPECT_EQ(m.site_cost(id, Site::Edge), edge.remote_cost(id)) << seed;
      EXPECT_EQ(m.site_cost(id, Site::Cloud), cloud.remote_cost(id)) << seed;
    }
    for (std::size_t fi = 0; fi < g.flow_count(); ++fi) {
      EXPECT_EQ(m.transfer_cost(fi, Site::Device, Site::Edge),
                edge.upload_cost(fi))
          << seed;
      EXPECT_EQ(m.transfer_cost(fi, Site::Edge, Site::Device),
                edge.download_cost(fi))
          << seed;
      EXPECT_EQ(m.transfer_cost(fi, Site::Device, Site::Cloud),
                cloud.upload_cost(fi))
          << seed;
      EXPECT_EQ(m.transfer_cost(fi, Site::Cloud, Site::Device),
                cloud.download_cost(fi))
          << seed;
    }
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
  const MultiCostModel pure(g, default_multi_environment(), Objective::cost());
  const auto all_dev = MultiExhaustivePartitioner().plan(pure);
  EXPECT_EQ(all_dev.count(Site::Device), g.component_count());

  // Money-dominant with a whisper of latency: compute lands on the cheap
  // serverless cloud ($2.9e-5/s), not the amortised edge ($8.3e-5/s); the
  // edge appears at most as an incidental relay hop.
  const MultiCostModel m(g, default_multi_environment(), {0.0001, 0.0, 1.0});
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

    EXPECT_LE(v3, restricted_optimum(m, Site::Cloud) + 1e-9) << g.name();
    EXPECT_LE(v3, restricted_optimum(m, Site::Edge) + 1e-9) << g.name();
  }
}

TEST(MultiPartitioners, MinCutTwoSitePlansMatchRestrictedExhaustive) {
  // T5's two-site columns: the min-cut over the device and one site, on
  // that site's CostModel, is the optimum of the restricted three-site
  // problem, under each of T5's objectives.
  const auto env = default_multi_environment();
  for (const auto& g : app::workloads::all()) {
    for (const Objective w : {Objective::latency(), Objective{0.0001, 0.0, 1.0},
                              Objective::non_time_critical()}) {
      const MultiCostModel m(g, env, w);
      for (const auto& [site, remote] :
           {std::pair{&env.cloud, Site::Cloud}, {&env.edge, Site::Edge}}) {
        const auto p = MinCutPartitioner().plan(CostModel(g, *site, w));
        auto sites = MultiPartition::all_device(g.component_count());
        for (app::ComponentId id = 0; id < g.component_count(); ++id)
          if (p.is_remote(id)) sites.site[id] = remote;
        EXPECT_DOUBLE_EQ(m.evaluate(sites), restricted_optimum(m, remote))
            << g.name() << " " << to_string(remote);
      }
    }
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
      const MultiCostModel m(g, default_multi_environment(),
                             {1.0, 0.05, money_w});
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
  env.edge.remote_speed = Frequency::gigahertz(rng.uniform(1.5, 5.0));

  // Money, energy, latency: the order each seed's case is drawn in.
  const double money = rng.uniform(0.0, 3.0);
  const double energy = rng.uniform(0.0, 0.1);
  const double latency = rng.uniform(0.1, 1.0);
  const MultiCostModel m(g, env, {latency, energy, money});
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
