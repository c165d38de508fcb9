// Spot-tier semantics (discounted, preemptible capacity) and the
// spot-with-fallback retry policy of the deferred executor.

#include <gtest/gtest.h>

#include "ntco/common/error.hpp"
#include "ntco/sched/deferred_scheduler.hpp"
#include "ntco/serverless/platform.hpp"

namespace ntco {
namespace {

serverless::PlatformConfig spot_config(Duration mean_preempt) {
  serverless::PlatformConfig cfg;
  cfg.core_speed = Frequency::gigahertz(2.5);
  cfg.spot_price_multiplier = 0.3;
  cfg.spot_mean_time_to_preempt = mean_preempt;
  return cfg;
}

serverless::FunctionId deploy(serverless::Platform& p) {
  return p.deploy({"fn", DataSize::megabytes(1792), DataSize::megabytes(10)});
}

TEST(SpotTier, NeverPreemptedWhenDisabled) {
  sim::Simulator s;
  serverless::Platform p(s, spot_config(Duration::zero()));
  const auto fn = deploy(p);
  int preempted = 0;
  for (int i = 0; i < 50; ++i)
    p.invoke(fn, Cycles::giga(25),
             [&](const serverless::InvocationResult& r) {
               if (r.preempted) ++preempted;
               EXPECT_EQ(r.tier, serverless::Tier::Spot);
             },
             serverless::Tier::Spot);
  s.run();
  EXPECT_EQ(preempted, 0);
  EXPECT_EQ(p.stats().preemptions, 0u);
}

TEST(SpotTier, SpotIsCheaperThanOnDemand) {
  sim::Simulator s;
  serverless::Platform p(s, spot_config(Duration::zero()));
  const auto mem = DataSize::gigabytes(1);
  const auto spot = p.invocation_cost(mem, Duration::seconds(10),
                                      TimePoint::origin(),
                                      serverless::Tier::Spot);
  const auto od = p.invocation_cost(mem, Duration::seconds(10),
                                    TimePoint::origin(),
                                    serverless::Tier::OnDemand);
  // 0.3x on the execution part; the request fee is unchanged.
  const auto req = p.config().price_per_request;
  EXPECT_EQ((spot - req).count_nano_usd(),
            static_cast<std::int64_t>(
                std::llround(static_cast<double>((od - req).count_nano_usd()) *
                             0.3)));
}

TEST(SpotTier, LongJobsGetPreemptedAtRoughlyTheHazardRate) {
  sim::Simulator s;
  // Executions take 10 s; mean time to preempt 10 s => P(preempt) = 1-1/e.
  serverless::Platform p(s, spot_config(Duration::seconds(10)));
  const auto fn = deploy(p);
  int preempted = 0;
  const int n = 600;
  for (int i = 0; i < n; ++i)
    p.invoke(fn, Cycles::giga(25),
             [&](const serverless::InvocationResult& r) {
               if (r.preempted) {
                 ++preempted;
                 EXPECT_LT(r.exec_time, Duration::seconds(10));
               } else {
                 EXPECT_EQ(r.exec_time, Duration::seconds(10));
               }
             },
             serverless::Tier::Spot);
  s.run();
  EXPECT_NEAR(static_cast<double>(preempted) / n, 1.0 - std::exp(-1.0), 0.06);
  EXPECT_EQ(p.stats().preemptions, static_cast<std::uint64_t>(preempted));
}

TEST(SpotTier, OnDemandIsNeverPreempted) {
  sim::Simulator s;
  serverless::Platform p(s, spot_config(Duration::millis(1)));  // brutal
  const auto fn = deploy(p);
  int preempted = 0;
  for (int i = 0; i < 20; ++i)
    p.invoke(fn, Cycles::giga(25), [&](const serverless::InvocationResult& r) {
      if (r.preempted) ++preempted;
    });
  s.run();
  EXPECT_EQ(preempted, 0);
}

TEST(SpotTier, PreemptedInstanceDoesNotReturnWarm) {
  sim::Simulator s;
  serverless::Platform p(s, spot_config(Duration::millis(1)));
  const auto fn = deploy(p);
  bool was_preempted = false;
  p.invoke(fn, Cycles::giga(250),
           [&](const serverless::InvocationResult& r) {
             was_preempted = r.preempted;
           },
           serverless::Tier::Spot);
  s.run_until(TimePoint::origin() + Duration::seconds(30));
  ASSERT_TRUE(was_preempted);
  EXPECT_EQ(p.warm_count(fn), 0u);
  EXPECT_EQ(p.concurrency_in_use(), 0u);  // concurrency slot released
}

TEST(SpotTier, InvalidSpotConfigRejected) {
  sim::Simulator s;
  auto cfg = spot_config(Duration::seconds(1));
  cfg.spot_price_multiplier = 0.0;
  EXPECT_THROW(serverless::Platform(s, cfg), ConfigError);
  cfg = spot_config(Duration::seconds(1));
  cfg.spot_price_multiplier = 1.5;
  EXPECT_THROW(serverless::Platform(s, cfg), ConfigError);
}

TEST(SpotFallback, SavesMoneyWithoutMissingDeadlines) {
  auto run = [](sched::TierPolicy tier) {
    sim::Simulator s;
    // Executions ~100 s, preemption mean 300 s: retries are common.
    serverless::Platform p(s, spot_config(Duration::seconds(300)));
    const auto fn = deploy(p);
    sched::DeferredScheduler::Config cfg;
    cfg.policy = sched::Policy::Immediate;
    cfg.tier_policy = tier;
    sched::DeferredExecutor exec(s, p, fn,
                                 sched::DeferredScheduler(p, cfg));
    for (int i = 0; i < 40; ++i)
      s.schedule_at(TimePoint::origin() + Duration::minutes(10 * i), [&exec] {
        exec.submit(sched::DeferredJob{"j", Cycles::giga(250),
                                       Duration::hours(2)});
      });
    s.run();
    return exec.report();
  };

  const auto od = run(sched::TierPolicy::OnDemandOnly);
  const auto spot = run(sched::TierPolicy::SpotWithFallback);
  ASSERT_EQ(od.jobs, 40u);
  ASSERT_EQ(spot.jobs, 40u);
  EXPECT_EQ(od.deadline_misses, 0u);
  EXPECT_EQ(spot.deadline_misses, 0u);
  EXPECT_EQ(od.spot_attempts, 0u);
  EXPECT_GT(spot.spot_attempts, 0u);
  EXPECT_GT(spot.spot_preemptions, 0u);  // the hazard really fired
  // Even paying for wasted partial executions, spot wins clearly.
  EXPECT_LT(spot.total_cost, od.total_cost * 0.7);
}

TEST(SpotFallback, TightSlackStaysOnDemand) {
  sim::Simulator s;
  serverless::Platform p(s, spot_config(Duration::seconds(300)));
  const auto fn = deploy(p);
  sched::DeferredScheduler::Config cfg;
  cfg.policy = sched::Policy::Immediate;
  cfg.tier_policy = sched::TierPolicy::SpotWithFallback;
  sched::DeferredExecutor exec(s, p, fn, sched::DeferredScheduler(p, cfg));
  // 100 s job with 150 s slack: 2x safety margin is not available, so the
  // executor must go straight to on-demand.
  exec.submit(sched::DeferredJob{"tight", Cycles::giga(250),
                                 Duration::seconds(150)});
  s.run();
  EXPECT_EQ(exec.report().spot_attempts, 0u);
  EXPECT_EQ(exec.report().deadline_misses, 0u);
}

}  // namespace
}  // namespace ntco
