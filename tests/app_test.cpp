#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "ntco/app/generators.hpp"
#include "ntco/app/task_graph.hpp"
#include "ntco/app/workloads.hpp"
#include "ntco/common/error.hpp"

namespace ntco::app {
namespace {

TaskGraph diamond() {
  TaskGraph g("diamond");
  const auto a = g.add_component({"a", Cycles::mega(10), DataSize::megabytes(64),
                                  DataSize::megabytes(5), true});
  const auto b = g.add_component({"b", Cycles::mega(20), DataSize::megabytes(64),
                                  DataSize::megabytes(5), false});
  const auto c = g.add_component({"c", Cycles::mega(30), DataSize::megabytes(64),
                                  DataSize::megabytes(5), false});
  const auto d = g.add_component({"d", Cycles::mega(40), DataSize::megabytes(64),
                                  DataSize::megabytes(5), true});
  g.add_flow(a, b, DataSize::kilobytes(100));
  g.add_flow(a, c, DataSize::kilobytes(200));
  g.add_flow(b, d, DataSize::kilobytes(300));
  g.add_flow(c, d, DataSize::kilobytes(400));
  return g;
}

TEST(TaskGraph, BasicAccessors) {
  const auto g = diamond();
  EXPECT_EQ(g.component_count(), 4u);
  EXPECT_EQ(g.flow_count(), 4u);
  EXPECT_EQ(g.component(0).name, "a");
  EXPECT_EQ(g.flow(0).bytes, DataSize::kilobytes(100));
  EXPECT_EQ(g.out_flows(0).size(), 2u);
  EXPECT_EQ(g.in_flows(3).size(), 2u);
  EXPECT_EQ(g.pinned_count(), 2u);
}

TEST(TaskGraph, Totals) {
  const auto g = diamond();
  EXPECT_EQ(g.total_work(), Cycles::mega(100));
  EXPECT_EQ(g.total_flow_bytes(), DataSize::kilobytes(1000));
  EXPECT_DOUBLE_EQ(g.compute_to_communication(), 100e6 / 1e6);
}

TEST(TaskGraph, ContractsOnMalformedInput) {
  TaskGraph g("bad");
  EXPECT_THROW((void)g.add_component({"", Cycles::mega(1), {}, {}, false}),
               ContractViolation);
  const auto a = g.add_component({"a", Cycles::mega(1), {}, {}, false});
  EXPECT_THROW(g.add_flow(a, a, DataSize::bytes(1)), ContractViolation);
  EXPECT_THROW(g.add_flow(a, 99, DataSize::bytes(1)), ContractViolation);
  EXPECT_THROW((void)g.component(42), ContractViolation);
}

TEST(TaskGraph, TopologicalOrderRespectsFlows) {
  const auto g = diamond();
  const auto order = g.topological_order();
  ASSERT_EQ(order.size(), 4u);
  std::vector<std::size_t> pos(4);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (const auto& f : g.flows()) EXPECT_LT(pos[f.from], pos[f.to]);
}

TEST(TaskGraph, CycleIsDetected) {
  TaskGraph g("cyclic");
  const auto a = g.add_component({"a", Cycles::mega(1), {}, {}, false});
  const auto b = g.add_component({"b", Cycles::mega(1), {}, {}, false});
  g.add_flow(a, b, DataSize::bytes(1));
  g.add_flow(b, a, DataSize::bytes(1));
  EXPECT_THROW((void)g.topological_order(), ConfigError);
}

TEST(TaskGraph, SourcesAndSinks) {
  const auto g = diamond();
  EXPECT_EQ(g.sources(), std::vector<ComponentId>{0});
  EXPECT_EQ(g.sinks(), std::vector<ComponentId>{3});
}

TEST(TaskGraph, WorkScalingPreservesStructure) {
  const auto g = diamond();
  const auto scaled = g.with_work_scaled(2.0);
  EXPECT_EQ(scaled.component_count(), g.component_count());
  EXPECT_EQ(scaled.flow_count(), g.flow_count());
  EXPECT_EQ(scaled.total_work(), Cycles::mega(200));
  EXPECT_EQ(scaled.total_flow_bytes(), g.total_flow_bytes());
  EXPECT_EQ(scaled.component(0).pinned_local, true);
  EXPECT_THROW((void)g.with_work_scaled(0.0), ContractViolation);
}

TEST(Generators, PipelineShape) {
  GeneratorParams p;
  p.components = 6;
  const auto g = linear_pipeline(p, Rng(1));
  EXPECT_EQ(g.component_count(), 6u);
  EXPECT_EQ(g.flow_count(), 5u);
  EXPECT_TRUE(g.component(0).pinned_local);
  EXPECT_TRUE(g.component(5).pinned_local);
  for (ComponentId i = 1; i < 5; ++i)
    EXPECT_FALSE(g.component(i).pinned_local);
  EXPECT_NO_THROW((void)g.topological_order());
}

TEST(Generators, FanOutShape) {
  GeneratorParams p;
  const auto g = fan_out_fan_in(8, p, Rng(2));
  EXPECT_EQ(g.component_count(), 10u);  // split + 8 workers + join
  EXPECT_EQ(g.flow_count(), 16u);
  EXPECT_EQ(g.sources().size(), 1u);
  EXPECT_EQ(g.sinks().size(), 1u);
  EXPECT_NO_THROW((void)g.topological_order());
}

TEST(Generators, DeterministicPerSeed) {
  GeneratorParams p;
  const auto a = layered_random(4, p, Rng(7));
  const auto b = layered_random(4, p, Rng(7));
  ASSERT_EQ(a.component_count(), b.component_count());
  for (ComponentId i = 0; i < a.component_count(); ++i)
    EXPECT_EQ(a.component(i).work, b.component(i).work);
}

class LayeredRandomProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LayeredRandomProperty, AlwaysValidDag) {
  GeneratorParams p;
  p.components = 24;
  const auto g = layered_random(5, p, Rng(GetParam()));
  EXPECT_EQ(g.component_count(), 24u);
  EXPECT_NO_THROW((void)g.topological_order());
  // Every non-source component is reachable (has >= 1 predecessor).
  const auto srcs = g.sources();
  const std::set<ComponentId> src_set(srcs.begin(), srcs.end());
  for (ComponentId v = 0; v < g.component_count(); ++v) {
    if (!src_set.contains(v)) {
      EXPECT_FALSE(g.in_flows(v).empty());
    }
  }
  // Sources are pinned (data acquisition stays on the UE).
  for (const auto s : srcs) EXPECT_TRUE(g.component(s).pinned_local);
  // No degenerate demands.
  for (const auto& c : g.components()) EXPECT_GT(c.work, Cycles::zero());
  for (const auto& f : g.flows()) EXPECT_GT(f.bytes, DataSize::zero());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LayeredRandomProperty,
                         ::testing::Range<std::uint64_t>(0, 25));

TEST(Workloads, AllAreValid) {
  for (const auto& g : workloads::all()) {
    EXPECT_NO_THROW((void)g.topological_order()) << g.name();
    EXPECT_GE(g.pinned_count(), 1u) << g.name();
    EXPECT_LT(g.pinned_count(), g.component_count()) << g.name();
    EXPECT_EQ(g.sources().size(), 1u) << g.name();
    EXPECT_GT(g.total_work(), Cycles::zero()) << g.name();
  }
}

TEST(Workloads, SpanTheComputeToCommunicationSpectrum) {
  // ML training is compute-dominated, video transcode transfer-dominated;
  // the other two sit in between. This ordering is what drives the F2
  // experiment's crossover.
  const double ml = workloads::ml_batch_training().compute_to_communication();
  const double etl = workloads::nightly_etl().compute_to_communication();
  const double photo = workloads::photo_backup().compute_to_communication();
  const double video = workloads::video_transcode().compute_to_communication();
  EXPECT_GT(ml, 20.0 * video);
  EXPECT_GT(etl, video);
  EXPECT_GT(photo, video);
  EXPECT_GT(ml, etl);
}

TEST(Workloads, EndpointsArePinned) {
  for (const auto& g : workloads::all()) {
    for (const auto s : g.sources())
      EXPECT_TRUE(g.component(s).pinned_local) << g.name();
    for (const auto s : g.sinks())
      EXPECT_TRUE(g.component(s).pinned_local) << g.name();
  }
}

}  // namespace
}  // namespace ntco::app
