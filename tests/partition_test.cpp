#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

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

TEST(CostModel, RefusesNegativeOrNonFiniteWeights) {
  const auto g = app::workloads::photo_backup();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {-1.0, kInf, -kInf, std::numeric_limits<double>::quiet_NaN()}) {
    for (double Objective::*weight :
         {&Objective::latency_weight, &Objective::energy_weight,
          &Objective::money_weight}) {
      Objective o = Objective::non_time_critical();
      o.*weight = bad;
      EXPECT_THROW((void)CostModel(g, fast_cloud_env(), o), ContractViolation)
          << bad;
    }
  }
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

// ---------------------------------------------------------- Min-cut oracle

/// A plain Dinic's, kept as the oracle for MaxFlow and
/// MinCutPartitioner: arc 2k and its reverse 2k + 1 in one
/// vector, a CSR of arc indices over it, a full BFS every phase, and a
/// separate BFS for the cut.
class ReferenceMaxFlow {
 public:
  explicit ReferenceMaxFlow(std::size_t nodes) : nodes_(nodes) {}

  void add_arc(std::size_t from, std::size_t to, double capacity) {
    arcs_.push_back(Arc{to, capacity});
    arcs_.push_back(Arc{from, 0.0});
  }

  double solve(std::size_t source, std::size_t sink) {
    start_.assign(nodes_ + 1, 0);
    for (std::size_t e = 0; e < arcs_.size(); ++e) ++start_[tail(e) + 1];
    for (std::size_t v = 0; v < nodes_; ++v) start_[v + 1] += start_[v];
    out_.resize(arcs_.size());
    iter_.assign(start_.begin(), start_.end() - 1);
    for (std::size_t e = 0; e < arcs_.size(); ++e) out_[iter_[tail(e)]++] = e;
    double flow = 0.0;
    const double inf = std::numeric_limits<double>::infinity();
    bfs(source);
    while (level_[sink] >= 0) {
      iter_.assign(start_.begin(), start_.end() - 1);
      for (;;) {
        const double pushed = dfs(source, sink, inf);
        if (pushed <= MaxFlow::kEps) break;
        if (std::isinf(pushed)) return inf;
        flow += pushed;
      }
      bfs(source);
    }
    return flow;
  }

  std::vector<bool> source_side(std::size_t source) {
    bfs(source);
    std::vector<bool> side(nodes_);
    for (std::size_t v = 0; v < nodes_; ++v) side[v] = level_[v] >= 0;
    return side;
  }

 private:
  struct Arc {
    std::size_t to;
    double cap;
  };

  [[nodiscard]] std::size_t tail(std::size_t e) const {
    return arcs_[e ^ 1].to;
  }

  void bfs(std::size_t source) {
    level_.assign(nodes_, -1);
    std::vector<std::size_t> queue{source};
    level_[source] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const std::size_t v = queue[head];
      for (std::size_t i = start_[v]; i < start_[v + 1]; ++i) {
        const Arc& e = arcs_[out_[i]];
        if (e.cap > MaxFlow::kEps && level_[e.to] < 0) {
          level_[e.to] = level_[v] + 1;
          queue.push_back(e.to);
        }
      }
    }
  }

  double dfs(std::size_t v, std::size_t sink, double pushed) {
    if (v == sink) return pushed;
    for (std::size_t& i = iter_[v]; i < start_[v + 1]; ++i) {
      Arc& e = arcs_[out_[i]];
      if (e.cap > MaxFlow::kEps && level_[e.to] == level_[v] + 1) {
        const double got = dfs(e.to, sink, std::min(pushed, e.cap));
        if (got > MaxFlow::kEps) {
          e.cap -= got;
          arcs_[out_[i] ^ 1].cap += got;
          return got;
        }
      }
    }
    return 0.0;
  }

  std::size_t nodes_;
  std::vector<Arc> arcs_;
  std::vector<std::size_t> start_;
  std::vector<std::size_t> out_;
  std::vector<std::size_t> iter_;
  std::vector<int> level_;
};

struct ArcSpec {
  std::size_t from;
  std::size_t to;
  double capacity;
};

/// Solves one network with `got` (reset and reused, so its buffers carry
/// over from the previous network) and with the reference: the flows must
/// be bit-equal and the source sides equal. `flow` and `side` get the
/// reference's results.
::testing::AssertionResult solves_like_reference(
    MaxFlow& got, std::size_t nodes, const std::vector<ArcSpec>& arcs,
    std::size_t source, std::size_t sink, double& flow,
    std::vector<bool>& side) {
  ReferenceMaxFlow ref(nodes);
  got.reset(nodes);
  for (const ArcSpec& a : arcs) {
    ref.add_arc(a.from, a.to, a.capacity);
    got.add_arc(a.from, a.to, a.capacity);
  }
  flow = ref.solve(source, sink);
  const double got_flow = got.solve(source, sink);
  side = ref.source_side(source);
  if (std::memcmp(&flow, &got_flow, sizeof(double)) != 0)
    return ::testing::AssertionFailure()
           << "flow " << got_flow << " != reference " << flow;
  if (got.min_cut_source_side(source) != side)
    return ::testing::AssertionFailure() << "source sides differ";
  return ::testing::AssertionSuccess();
}

TEST(MinCutRandomized, MatchesReferenceDinicOnPlanNetworks) {
  // Layered DAGs of 2-96 components, random pins, bandwidth scaled by
  // 2^-6..2^6, every Objective preset (a quarter of them scaled down to
  // costs near MaxFlow::kEps, a few with the largest finite latency
  // weight).
  // MaxFlow runs the network as built before the first-phase subtraction;
  // MinCutPartitioner (one object, its solver scratch reused) must return
  // the reference's placement.
  const Objective presets[] = {Objective::latency(), Objective::energy(),
                               Objective::cost(),
                               Objective::non_time_critical()};
  MaxFlow got(0);
  const MinCutPartitioner mincut;
  std::size_t subtracted = 0;  // components the first phase pushes through
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    Rng rng(seed);
    app::GeneratorParams gp;
    gp.components = static_cast<std::size_t>(rng.uniform_int(2, 96));
    gp.pin_fraction = rng.uniform(0.0, 1.0);
    gp.mean_work = Cycles::mega(
        static_cast<std::uint64_t>(rng.uniform_int(20, 5000)));
    gp.mean_flow = DataSize::kilobytes(
        static_cast<std::uint64_t>(rng.uniform_int(1, 5000)));
    const auto layers = static_cast<std::size_t>(rng.uniform_int(
        2, static_cast<std::int64_t>(std::min<std::size_t>(gp.components, 8))));
    const auto g = app::layered_random(layers, gp, rng.fork(1));
    Environment env = fast_cloud_env();
    const double scale = std::exp2(rng.uniform(-6.0, 6.0));
    env.uplink = env.uplink * scale;
    env.downlink = env.downlink * scale;
    env.remote_speed = Frequency::gigahertz(rng.uniform(1.0, 8.0));
    Objective obj = presets[seed % 4];
    if (seed % 8 < 2) {
      // Weights scaled so that costs straddle MaxFlow::kEps, where the
      // first-phase subtraction must follow Dinic's saturation test.
      const double tiny = std::exp2(-rng.uniform(36.0, 44.0));
      obj.latency_weight *= tiny;
      obj.energy_weight *= tiny;
      obj.money_weight *= tiny;
    }
    if (seed % 100 == 0) {
      // The model refuses an infinite weight. The largest finite one
      // overflows to infinity every cost of a side that takes longer than
      // a second, a pinned component's local side included: the first
      // phase must leave such a pair of arcs whole, and the cut comes from
      // the unbounded push.
      obj.latency_weight = std::numeric_limits<double>::infinity();
      EXPECT_THROW((void)CostModel(g, env, obj), ContractViolation)
          << "seed " << seed;
      obj.latency_weight = std::numeric_limits<double>::max();
    }
    const CostModel model(g, env, obj);

    const std::size_t n = g.component_count();
    std::vector<ArcSpec> arcs;
    for (app::ComponentId id = 0; id < n; ++id) {
      const double to_remote = g.component(id).pinned_local
                                   ? std::numeric_limits<double>::infinity()
                                   : model.remote_cost(id);
      arcs.push_back({n, id, to_remote});
      arcs.push_back({id, n + 1, model.local_cost(id)});
      if (to_remote > MaxFlow::kEps && model.local_cost(id) > MaxFlow::kEps)
        ++subtracted;
    }
    for (std::size_t fi = 0; fi < g.flow_count(); ++fi) {
      const auto& f = g.flow(fi);
      arcs.push_back({f.from, f.to, model.upload_cost(fi)});
      arcs.push_back({f.to, f.from, model.download_cost(fi)});
    }
    double flow = 0.0;
    std::vector<bool> side;
    ASSERT_TRUE(
        solves_like_reference(got, n + 2, arcs, n, n + 1, flow, side))
        << "seed " << seed;
    Partition want = Partition::all_local(n);
    for (app::ComponentId id = 0; id < n; ++id)
      if (!side[id]) want.placement[id] = Placement::Remote;
    ASSERT_EQ(mincut.plan(model).to_string(), want.to_string())
        << "seed " << seed;
  }
  EXPECT_GT(subtracted, 0u);
}

TEST(MinCutRandomized, MatchesReferenceDinicOnGenericNetworks) {
  // Random graphs with parallel and antiparallel arcs, arcs into the
  // source, self-loops, zero, sub-kEps and infinite capacities, and some
  // with no arc into the sink at all.
  MaxFlow got(0);
  std::size_t unbounded = 0;
  std::size_t unreachable = 0;
  std::size_t into_source = 0;
  for (std::uint64_t seed = 1; seed <= 1200; ++seed) {
    Rng rng = Rng(seed).fork(7);
    const auto nodes = static_cast<std::size_t>(rng.uniform_int(2, 40));
    const auto pick = [&] {
      return static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(nodes) - 1));
    };
    const std::size_t source = pick();
    std::size_t sink = pick();
    while (sink == source) sink = pick();
    const bool cut_off = rng.bernoulli(0.1);
    const auto capacity = [&] {
      const double r = rng.uniform(0.0, 1.0);
      if (r < 0.03) return std::numeric_limits<double>::infinity();
      if (r < 0.08) return 0.0;
      if (r < 0.12) return rng.uniform(0.0, 2.0 * MaxFlow::kEps);
      return rng.uniform(0.0, 1.0) * std::exp2(rng.uniform(-20.0, 20.0));
    };
    std::vector<ArcSpec> arcs;
    const auto count = rng.uniform_int(0, 4 * static_cast<std::int64_t>(nodes));
    for (std::int64_t k = 0; k < count; ++k) {
      const std::size_t from = pick();
      const std::size_t to = pick();
      if (cut_off && to == sink) continue;
      if (to == source) ++into_source;
      arcs.push_back({from, to, capacity()});
      if (rng.bernoulli(0.2) && !(cut_off && from == sink))
        arcs.push_back({to, from, capacity()});  // antiparallel
      if (rng.bernoulli(0.15)) arcs.push_back({from, to, capacity()});
    }
    double flow = 0.0;
    std::vector<bool> side;
    ASSERT_TRUE(
        solves_like_reference(got, nodes, arcs, source, sink, flow, side))
        << "seed " << seed;
    if (std::isinf(flow)) ++unbounded;
    if (cut_off) ++unreachable;
  }
  EXPECT_GT(unbounded, 0u);
  EXPECT_GT(unreachable, 0u);
  EXPECT_GT(into_source, 0u);
}

}  // namespace
}  // namespace ntco::partition
