// Cross-module integration tests and system-level properties that no
// single-module suite covers.

#include <gtest/gtest.h>

#include "ntco/app/generators.hpp"
#include "ntco/app/workloads.hpp"
#include "ntco/cicd/pipeline.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/net/mobility.hpp"
#include "ntco/profile/profiler.hpp"
#include "ntco/net/path.hpp"

namespace ntco {
namespace {

TEST(Integration, MobilityDrivenControllerRunsEndToEnd) {
  // The controller must work unchanged behind a schedule-following path:
  // the same plan executes faster on WiFi than on the 4G commute.
  const auto schedule = net::MobilitySchedule::commuter_day();
  sim::Simulator sim;
  serverless::Platform cloud(sim, {});
  device::Device phone(device::budget_phone());
  net::NetworkPath path(
      "mobile",
      std::make_unique<net::MobileLink>(schedule, true,
                                        [&sim] { return sim.now(); }),
      std::make_unique<net::MobileLink>(schedule, false,
                                        [&sim] { return sim.now(); }));
  core::ControllerConfig cfg;
  cfg.objective = partition::Objective::latency();
  core::OffloadController ctl(sim, cloud, phone, path, cfg);

  const auto g = app::workloads::ml_batch_training();
  const auto plan = ctl.prepare(g, partition::MinCutPartitioner{});
  ASSERT_GT(plan.partition.remote_count(), 0u);

  // Warm up, then measure one run on home WiFi (t ~ 1 h)...
  (void)ctl.execute(plan, g);
  const auto on_wifi = ctl.execute(plan, g);
  // ...and one on the 08:00-09:00 4G commute.
  sim.run_until(TimePoint::origin() + Duration::hours(8) +
                Duration::minutes(30));
  const auto on_4g = ctl.execute(plan, g);

  EXPECT_FALSE(on_wifi.failed);
  EXPECT_FALSE(on_4g.failed);
  EXPECT_LT(on_wifi.transfer, on_4g.transfer);
  EXPECT_LT(on_wifi.makespan, on_4g.makespan);
}

TEST(Integration, PipelinePlanSurvivesIntoProductionExecution) {
  // A plan promoted by the release pipeline is directly executable by the
  // controller against drifting truth until the watcher fires.
  sim::Simulator sim;
  serverless::Platform cloud(sim, {});
  device::Device phone(device::budget_phone());
  auto path = net::make_fixed_path(net::profile_4g());
  core::ControllerConfig ccfg;
  ccfg.objective = partition::Objective::latency();
  core::OffloadController ctl(sim, cloud, phone, path, ccfg);
  cicd::PipelineConfig pcfg;
  pcfg.canary_runs = 2;
  pcfg.profile_runs = 10;
  cicd::ReleasePipeline pipeline(sim, ctl, pcfg, Rng(3));

  const auto g = app::workloads::photo_backup();
  const auto release = pipeline.run_release(g, partition::MinCutPartitioner{},
                                            nullptr);
  ASSERT_TRUE(release.promoted);

  profile::DriftDetector drift(0.4, 3);
  int production_runs = 0;
  for (double scale = 1.0; scale < 4.0; scale += 0.25) {
    const auto truth = g.with_work_scaled(scale);
    const auto r = ctl.execute(*release.plan, truth);
    EXPECT_FALSE(r.failed);
    ++production_runs;
    if (drift.observe(truth.total_work())) break;
  }
  EXPECT_TRUE(drift.drifted());
  EXPECT_GT(production_runs, 4);
}

/// Property: widening the uplink can never make the optimal plan worse —
/// the optimiser can always ignore extra bandwidth.
class BandwidthMonotonicity : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(BandwidthMonotonicity, OptimalObjectiveIsMonotoneInBandwidth) {
  Rng rng(GetParam());
  app::GeneratorParams gp;
  gp.components = 6 + static_cast<std::size_t>(rng.uniform_int(0, 8));
  const auto g = app::layered_random(3, gp, rng.fork(1));

  partition::Environment env;
  env.device = device::budget_phone();
  const partition::MinCutPartitioner mincut;

  double previous = std::numeric_limits<double>::infinity();
  for (const auto mbps : {1ULL, 4ULL, 16ULL, 64ULL, 256ULL}) {
    env.uplink = DataRate::megabits_per_second(mbps);
    env.downlink = DataRate::megabits_per_second(mbps * 2);
    const partition::CostModel model(g, env, partition::Objective::latency());
    const double value = model.evaluate(mincut.plan(model));
    EXPECT_LE(value, previous + 1e-9) << "at " << mbps << " Mb/s";
    previous = value;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BandwidthMonotonicity,
                         ::testing::Range<std::uint64_t>(0, 15));

/// Property: the objective is positively homogeneous — scaling all weights
/// scales the value and preserves the argmin.
class ObjectiveHomogeneity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ObjectiveHomogeneity, ScalingWeightsPreservesTheOptimum) {
  Rng rng(GetParam());
  app::GeneratorParams gp;
  gp.components = 8;
  const auto g = app::layered_random(3, gp, rng.fork(1));
  partition::Environment env;
  env.device = device::budget_phone();

  const partition::Objective base{rng.uniform(0.1, 1.0),
                                  rng.uniform(0.0, 0.2),
                                  rng.uniform(0.0, 2.0)};
  const double k = rng.uniform(2.0, 10.0);
  const partition::Objective scaled{base.latency_weight * k,
                                    base.energy_weight * k,
                                    base.money_weight * k};

  const partition::CostModel m1(g, env, base);
  const partition::CostModel mk(g, env, scaled);
  const partition::MinCutPartitioner mincut;
  const auto p1 = mincut.plan(m1);
  const auto pk = mincut.plan(mk);
  EXPECT_NEAR(mk.evaluate(pk), k * m1.evaluate(p1),
              k * m1.evaluate(p1) * 1e-9);
  // The argmin is identical up to cost ties.
  EXPECT_NEAR(m1.evaluate(pk), m1.evaluate(p1), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ObjectiveHomogeneity,
                         ::testing::Range<std::uint64_t>(0, 15));

/// Property: the plan's predicted breakdown equals the cost model's
/// breakdown of its partition — prepare() must not distort the model.
TEST(Integration, PreparePredictionMatchesCostModel) {
  for (const auto& g : app::workloads::all()) {
    sim::Simulator sim;
    serverless::Platform cloud(sim, {});
    device::Device phone(device::budget_phone());
    auto path = net::make_fixed_path(net::profile_4g());
    core::OffloadController ctl(sim, cloud, phone, path, {});
    const auto plan = ctl.prepare(g, partition::MinCutPartitioner{});
    const partition::CostModel model(g, plan.environment,
                                     ctl.config().objective);
    const auto expected = model.breakdown(plan.partition);
    EXPECT_DOUBLE_EQ(plan.predicted.objective, expected.objective)
        << g.name();
    EXPECT_EQ(plan.predicted.latency, expected.latency) << g.name();
  }
}

/// Property: end-to-end determinism — identical seeds and scenario produce
/// bit-identical reports.
TEST(Integration, WholeStackIsDeterministic) {
  auto run_once = [] {
    sim::Simulator sim;
    serverless::PlatformConfig pcfg;
    pcfg.seed = 99;
    serverless::Platform cloud(sim, pcfg);
    device::Device phone(device::budget_phone());
    auto path = net::make_stochastic_path(net::profile_4g(), Rng(5));
    core::OffloadController ctl(sim, cloud, phone, path, {});
    const auto g = app::workloads::nightly_etl();
    profile::TraceGenerator gen(g, 0.3, Rng(6));
    profile::DemandProfiler prof(g.component_count(), g.flow_count());
    for (int i = 0; i < 25; ++i) prof.ingest(gen.next());
    const auto plan =
        ctl.prepare(prof.estimated_graph(g), partition::MinCutPartitioner{});
    return ctl.execute(plan, g);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.device_energy, b.device_energy);
  EXPECT_EQ(a.cloud_cost, b.cloud_cost);
  EXPECT_EQ(a.cold_starts, b.cold_starts);
}

}  // namespace
}  // namespace ntco
