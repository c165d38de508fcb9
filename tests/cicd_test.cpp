#include "ntco/cicd/pipeline.hpp"

#include <gtest/gtest.h>

#include "ntco/app/workloads.hpp"
#include "ntco/common/error.hpp"
#include "ntco/net/path.hpp"
#include "ntco/profile/profiler.hpp"

namespace ntco::cicd {
namespace {

struct Fixture {
  sim::Simulator sim;
  serverless::Platform platform;
  device::Device ue;
  net::NetworkPath path;
  core::OffloadController controller;

  explicit Fixture(core::ControllerConfig cfg = {})
      : platform(sim, {}),
        ue(device::budget_phone()),
        path(net::make_fixed_path(net::profile_4g())),
        controller(sim, platform, ue, path, cfg) {}
};

core::ControllerConfig latency_objective() {
  core::ControllerConfig cfg;
  cfg.objective = partition::Objective::latency();
  return cfg;
}

TEST(ReleasePipeline, HappyPathPromotesFirstRelease) {
  Fixture fx;
  PipelineConfig cfg;
  cfg.canary_runs = 3;
  cfg.profile_runs = 10;
  ReleasePipeline pipeline(fx.sim, fx.controller, cfg, Rng(1));
  const auto g = app::workloads::photo_backup();
  const partition::MinCutPartitioner mincut;

  const auto report = pipeline.run_release(g, mincut, nullptr);
  EXPECT_TRUE(report.promoted);
  EXPECT_FALSE(report.aborted);
  ASSERT_TRUE(report.plan.has_value());
  EXPECT_TRUE(report.plan->partition.respects_pins(g));
  // All stages present, in order.
  ASSERT_GE(report.stages.size(), 7u);
  EXPECT_EQ(report.stages[0].name, "build");
  EXPECT_EQ(report.stages[1].name, "test");
  EXPECT_EQ(report.stages[2].name, "package");
  EXPECT_EQ(report.stages[3].name, "profile");
  EXPECT_EQ(report.stages[4].name, "partition+deploy");
  EXPECT_EQ(report.stages[5].name, "canary");
  EXPECT_EQ(report.stages.back().name, "promote");
  EXPECT_GT(report.total_duration, Duration::minutes(9));
  EXPECT_GT(report.candidate_objective, 0.0);
  EXPECT_DOUBLE_EQ(report.incumbent_objective, 0.0);
}

TEST(ReleasePipeline, TestFailureAbortsBeforeDeploy) {
  Fixture fx;
  PipelineConfig cfg;
  cfg.test_failure_rate = 1.0;
  ReleasePipeline pipeline(fx.sim, fx.controller, cfg, Rng(2));
  const auto g = app::workloads::photo_backup();
  const auto report =
      pipeline.run_release(g, partition::MinCutPartitioner{}, nullptr);
  EXPECT_TRUE(report.aborted);
  EXPECT_FALSE(report.promoted);
  EXPECT_FALSE(report.plan.has_value());
  EXPECT_EQ(report.stages.back().name, "test");
  EXPECT_FALSE(report.stages.back().ok);
  EXPECT_EQ(fx.platform.function_count(), 0u);  // nothing deployed
}

TEST(ReleasePipeline, CanaryRollsBackRegressingCandidate) {
  // Latency objective: the canary compares measured makespans directly.
  Fixture fx(latency_objective());
  PipelineConfig cfg;
  cfg.canary_runs = 3;
  cfg.profile_runs = 10;
  cfg.regression_tolerance = 0.05;
  ReleasePipeline pipeline(fx.sim, fx.controller, cfg, Rng(3));
  const auto g = app::workloads::ml_batch_training();

  // Incumbent: a good plan from a faithful profile.
  const auto first =
      pipeline.run_release(g, partition::MinCutPartitioner{}, nullptr);
  ASSERT_TRUE(first.promoted);

  // Candidate: built from a profile that under-reports demand 20x, which
  // pushes the partitioner toward keeping heavy work on the phone.
  const auto second = pipeline.run_release(
      g, partition::MinCutPartitioner{}, &*first.plan, /*profile_bias=*/0.05);
  EXPECT_FALSE(second.promoted);
  EXPECT_EQ(second.stages.back().name, "rollback");
  EXPECT_GT(second.candidate_objective,
            second.incumbent_objective * 1.05);
}

TEST(ReleasePipeline, EquivalentCandidatePromotesWithinTolerance) {
  Fixture fx;
  PipelineConfig cfg;
  cfg.canary_runs = 3;
  cfg.profile_runs = 30;
  cfg.regression_tolerance = 0.15;
  ReleasePipeline pipeline(fx.sim, fx.controller, cfg, Rng(4));
  const auto g = app::workloads::nightly_etl();

  const auto first =
      pipeline.run_release(g, partition::MinCutPartitioner{}, nullptr);
  ASSERT_TRUE(first.promoted);
  const auto second = pipeline.run_release(g, partition::MinCutPartitioner{},
                                           &*first.plan);
  EXPECT_TRUE(second.promoted);
}

TEST(ReleasePipeline, StageLookupByName) {
  Fixture fx;
  PipelineConfig cfg;
  cfg.canary_runs = 2;
  cfg.profile_runs = 5;
  ReleasePipeline pipeline(fx.sim, fx.controller, cfg, Rng(5));
  const auto g = app::workloads::photo_backup();
  const auto report =
      pipeline.run_release(g, partition::MinCutPartitioner{}, nullptr);
  ASSERT_NE(report.stage("profile"), nullptr);
  EXPECT_EQ(report.stage("profile")->detail, "5 runs");
  EXPECT_EQ(report.stage("no-such-stage"), nullptr);
}

TEST(ReleasePipeline, InvalidConfigRejected) {
  Fixture fx;
  PipelineConfig cfg;
  cfg.canary_runs = 0;
  EXPECT_THROW(ReleasePipeline(fx.sim, fx.controller, cfg, Rng(6)),
               ConfigError);
  cfg = {};
  cfg.test_failure_rate = 2.0;
  EXPECT_THROW(ReleasePipeline(fx.sim, fx.controller, cfg, Rng(7)),
               ConfigError);
}

TEST(MeasuredObjective, AppliesTheWeights) {
  core::ExecutionReport r;
  r.makespan = Duration::seconds(10);
  r.device_energy = Energy::joules(5.0);
  r.cloud_cost = Money::from_usd(0.01);
  EXPECT_DOUBLE_EQ(measured_objective({1.0, 0.0, 0.0}, r), 10.0);
  EXPECT_DOUBLE_EQ(measured_objective({0.0, 1.0, 0.0}, r), 5.0);
  EXPECT_DOUBLE_EQ(measured_objective({1.0, 2.0, 100.0}, r), 10 + 10 + 1);
}

TEST(DriftDetector, TriggersReleaseOnWorkloadShift) {
  profile::DriftDetector drift(0.25, 10);
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(drift.observe(Cycles::giga(10)));
  bool triggered = false;
  for (int i = 0; i < 15; ++i) triggered = drift.observe(Cycles::giga(16));
  EXPECT_TRUE(triggered);
  EXPECT_TRUE(drift.drifted());
  EXPECT_NEAR(drift.relative_change(), 0.6, 1e-9);
  drift.reset_baseline();
  EXPECT_FALSE(drift.drifted());
  for (int i = 0; i < 10; ++i) EXPECT_FALSE(drift.observe(Cycles::giga(16)));
}

TEST(DriftWatcherWithPipeline, RepartitionAfterDriftImprovesObjective) {
  Fixture fx;
  PipelineConfig cfg;
  cfg.canary_runs = 3;
  cfg.profile_runs = 20;
  ReleasePipeline pipeline(fx.sim, fx.controller, cfg, Rng(8));
  const auto original = app::workloads::photo_backup();

  const auto first =
      pipeline.run_release(original, partition::MinCutPartitioner{}, nullptr);
  ASSERT_TRUE(first.promoted);

  // The workload drifts: demand grows 8x (e.g. users switch to RAW photos).
  const auto drifted = original.with_work_scaled(8.0);
  const auto second = pipeline.run_release(
      drifted, partition::MinCutPartitioner{}, &*first.plan);
  ASSERT_TRUE(second.promoted);
  // The re-partitioned plan offloads at least as much as before (heavier
  // compute favours the cloud) and measures no worse than the stale plan.
  EXPECT_GE(second.plan->partition.remote_count(),
            first.plan->partition.remote_count());
  EXPECT_LE(second.candidate_objective,
            second.incumbent_objective * (1.0 + cfg.regression_tolerance));
}

}  // namespace
}  // namespace ntco::cicd
