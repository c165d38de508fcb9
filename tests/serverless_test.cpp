#include "ntco/serverless/platform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "ntco/common/error.hpp"
#include "ntco/common/rng.hpp"

namespace ntco::serverless {
namespace {

PlatformConfig fast_config() {
  PlatformConfig cfg;
  cfg.core_speed = Frequency::gigahertz(2.0);
  cfg.full_share_memory = DataSize::megabytes(1792);
  cfg.cold_start_base = Duration::millis(100);
  cfg.image_install_rate = DataRate::megabits_per_second(400);
  cfg.keep_alive = Duration::minutes(10);
  return cfg;
}

FunctionSpec small_fn(std::string name = "fn") {
  return FunctionSpec{std::move(name), DataSize::megabytes(1792),
                      DataSize::megabytes(10)};
}

TEST(PlatformMath, CpuShareScalesWithMemory) {
  sim::Simulator s;
  Platform p(s, fast_config());
  EXPECT_DOUBLE_EQ(p.cpu_share(DataSize::megabytes(1792)), 1.0);
  EXPECT_DOUBLE_EQ(p.cpu_share(DataSize::megabytes(896)), 0.5);
  EXPECT_DOUBLE_EQ(p.cpu_share(DataSize::megabytes(10240)),
                   10240.0 / 1792.0);  // below the 6-vCPU cap
  EXPECT_DOUBLE_EQ(p.cpu_share(DataSize::megabytes(17920)), 6.0);  // capped
}

TEST(PlatformMath, ExecTimeInverselyProportionalToMemory) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto work = Cycles::giga(2);  // 1 s at full share (2 GHz)
  EXPECT_EQ(p.exec_time(DataSize::megabytes(1792), work), Duration::seconds(1));
  EXPECT_EQ(p.exec_time(DataSize::megabytes(896), work), Duration::seconds(2));
}

TEST(PlatformMath, ColdStartGrowsWithImage) {
  sim::Simulator s;
  Platform p(s, fast_config());
  // 10 MB at 400 Mb/s = 200 ms install + 100 ms base.
  EXPECT_EQ(p.cold_start_time(DataSize::megabytes(10)), Duration::millis(300));
  EXPECT_LT(p.cold_start_time(DataSize::megabytes(1)),
            p.cold_start_time(DataSize::megabytes(100)));
}

TEST(PlatformMath, QuantizeMemoryRoundsUpAndClamps) {
  sim::Simulator s;
  Platform p(s, fast_config());
  EXPECT_EQ(p.quantize_memory(DataSize::megabytes(100)),
            DataSize::megabytes(128));  // below floor
  EXPECT_EQ(p.quantize_memory(DataSize::megabytes(130)),
            DataSize::megabytes(192));  // round up to 64 MB quantum
  EXPECT_EQ(p.quantize_memory(DataSize::megabytes(99999)),
            DataSize::megabytes(10240));  // ceiling
}

TEST(PlatformMath, InvocationCostMatchesHandComputation) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.price_per_gb_second = Money::nano_usd(16'667);
  cfg.price_per_request = Money::nano_usd(200);
  Platform p(s, cfg);
  // 1 GB for exactly 1 s: 16667 + 200 nano-USD.
  const auto c = p.invocation_cost(DataSize::gigabytes(1),
                                   Duration::seconds(1), TimePoint::origin());
  EXPECT_EQ(c.count_nano_usd(), 16'867);
}

TEST(PlatformMath, BillingRoundsUpToQuantum) {
  sim::Simulator s;
  Platform p(s, fast_config());
  // 1 us of work is billed as a full 1 ms.
  const auto tiny = p.invocation_cost(DataSize::gigabytes(1),
                                      Duration::micros(1), TimePoint::origin());
  const auto ms = p.invocation_cost(DataSize::gigabytes(1),
                                    Duration::millis(1), TimePoint::origin());
  EXPECT_EQ(tiny, ms);
}

TEST(Platform, DeployValidation) {
  sim::Simulator s;
  Platform p(s, fast_config());
  EXPECT_THROW((void)p.deploy({"", DataSize::megabytes(256),
                               DataSize::megabytes(1)}),
               ConfigError);
  EXPECT_THROW((void)p.deploy({"too-small", DataSize::megabytes(64),
                               DataSize::megabytes(1)}),
               ConfigError);
  EXPECT_THROW((void)p.deploy({"misaligned", DataSize::megabytes(200),
                               DataSize::megabytes(1)}),
               ConfigError);
  const auto id = p.deploy(small_fn());
  EXPECT_EQ(p.spec(id).name, "fn");
  EXPECT_EQ(p.function_count(), 1u);
}

TEST(Platform, FirstInvocationIsColdSecondIsWarm) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  std::vector<InvocationResult> results;
  p.invoke(id, Cycles::giga(2), [&](const InvocationResult& r) {
    results.push_back(r);
    p.invoke(id, Cycles::giga(2),
             [&](const InvocationResult& r2) { results.push_back(r2); });
  });
  s.run();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_TRUE(results[0].cold_start);
  EXPECT_EQ(results[0].init_time, Duration::millis(300));
  EXPECT_EQ(results[0].exec_time, Duration::seconds(1));
  EXPECT_FALSE(results[1].cold_start);
  EXPECT_TRUE(results[1].init_time.is_zero());
}

TEST(Platform, KeepAliveExpiryForcesColdStart) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.keep_alive = Duration::seconds(5);
  Platform p(s, cfg);
  const auto id = p.deploy(small_fn());
  p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  // Execution ends at 1.3 s; stop before the 5 s keep-alive lapses.
  s.run_until(TimePoint::origin() + Duration::seconds(2));
  EXPECT_EQ(p.warm_count(id), 1u);
  // Let the keep-alive lapse.
  s.run_until(s.now() + Duration::seconds(6));
  EXPECT_EQ(p.warm_count(id), 0u);
  bool cold = false;
  p.invoke(id, Cycles::giga(2),
           [&](const InvocationResult& r) { cold = r.cold_start; });
  s.run();
  EXPECT_TRUE(cold);
}

TEST(Platform, ReuseWithinKeepAliveStaysWarm) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.keep_alive = Duration::seconds(5);
  Platform p(s, cfg);
  const auto id = p.deploy(small_fn());
  p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  // Execution ends at 1.3 s; re-invoke 3 s later, inside the 5 s window.
  s.run_until(TimePoint::origin() + Duration::millis(4300));
  bool cold = true;
  p.invoke(id, Cycles::giga(2),
           [&](const InvocationResult& r) { cold = r.cold_start; });
  s.run();
  EXPECT_FALSE(cold);
}

TEST(Platform, ConcurrentBurstColdStartsEachInstance) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  int colds = 0;
  for (int i = 0; i < 5; ++i)
    p.invoke(id, Cycles::giga(2), [&](const InvocationResult& r) {
      if (r.cold_start) ++colds;
    });
  s.run_until(TimePoint::origin() + Duration::seconds(2));
  EXPECT_EQ(colds, 5);  // no instance is free to reuse in a burst
  EXPECT_EQ(p.warm_count(id), 5u);
  EXPECT_EQ(p.stats().peak_concurrency, 5u);
}

TEST(Platform, AccountConcurrencyThrottlesFifo) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.account_concurrency = 2;
  Platform p(s, cfg);
  const auto id = p.deploy(small_fn());
  std::vector<int> done_order;
  std::vector<Duration> queue_waits;
  for (int i = 0; i < 4; ++i)
    p.invoke(id, Cycles::giga(2), [&, i](const InvocationResult& r) {
      done_order.push_back(i);
      queue_waits.push_back(r.queue_wait);
    });
  s.run();
  ASSERT_EQ(done_order.size(), 4u);
  EXPECT_EQ(done_order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_TRUE(queue_waits[0].is_zero());
  EXPECT_GT(queue_waits[2], Duration::zero());
  EXPECT_EQ(p.stats().throttled, 2u);
  EXPECT_EQ(p.stats().peak_concurrency, 2u);
}

TEST(Platform, ProvisionedConcurrencySkipsColdStart) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  p.set_provisioned_concurrency(id, 2);
  EXPECT_EQ(p.warm_count(id), 2u);
  int colds = 0;
  for (int i = 0; i < 2; ++i)
    p.invoke(id, Cycles::giga(2), [&](const InvocationResult& r) {
      if (r.cold_start) ++colds;
    });
  s.run();
  EXPECT_EQ(colds, 0);
  EXPECT_EQ(p.warm_count(id), 2u);  // provisioned instances return to pool
}

TEST(Platform, MixedPoolTakesProvisionedFirstAndOnDemandStillExpires) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.keep_alive = Duration::seconds(5);
  Platform p(s, cfg);
  const auto id = p.deploy(small_fn());
  // Two on-demand instances: a burst of two cold starts, both done at
  // 1.3 s, so their keep-alives lapse at 6.3 s.
  for (int i = 0; i < 2; ++i)
    p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  s.run_until(TimePoint::origin() + Duration::seconds(2));
  p.set_provisioned_concurrency(id, 1);
  EXPECT_EQ(p.warm_count(id), 3u);
  bool cold = true;
  p.invoke(id, Cycles::giga(2),
           [&](const InvocationResult& r) { cold = r.cold_start; });
  EXPECT_EQ(p.warm_count(id), 2u);
  s.run_until(TimePoint::origin() + Duration::millis(6200));
  EXPECT_FALSE(cold);
  EXPECT_EQ(p.warm_count(id), 3u);
  // Had the warm start taken an on-demand instance, its keep-alive would
  // have been re-armed at 3 s and one on-demand instance would remain.
  s.run_until(TimePoint::origin() + Duration::millis(6400));
  EXPECT_EQ(p.warm_count(id), 1u);
}

TEST(Platform, ProvisionedCapacityAccruesCostWhileIdle) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.provisioned_price_per_gb_second = Money::nano_usd(4'167);
  cfg.memory_quantum = DataSize::megabytes(1);  // allow an exact 1 GB config
  Platform p(s, cfg);
  const auto id = p.deploy({"fn", DataSize::gigabytes(1),
                            DataSize::megabytes(10)});
  p.set_provisioned_concurrency(id, 2);
  s.schedule_after(Duration::seconds(100), [] {});
  s.run();
  // 2 instances x 1 GB x 100 s x 4167 nano$/GB-s.
  EXPECT_EQ(p.stats().provisioned_cost.count_nano_usd(), 2 * 100 * 4'167);
  p.set_provisioned_concurrency(id, 0);
  EXPECT_EQ(p.warm_count(id), 0u);
  const auto before = p.stats().provisioned_cost;
  s.schedule_after(Duration::seconds(50), [] {});
  s.run();
  EXPECT_EQ(p.stats().provisioned_cost, before);  // no further accrual
}

TEST(Platform, RedeployInvalidatesWarmInstances) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  p.invoke(id, Cycles::giga(1), [](const InvocationResult&) {});
  s.run_until(TimePoint::origin() + Duration::seconds(1));
  EXPECT_EQ(p.warm_count(id), 1u);
  p.redeploy(id, small_fn("fn-v2"));
  EXPECT_EQ(p.warm_count(id), 0u);
  bool cold = false;
  p.invoke(id, Cycles::giga(1),
           [&](const InvocationResult& r) { cold = r.cold_start; });
  s.run();
  EXPECT_TRUE(cold);
  EXPECT_EQ(p.spec(id).name, "fn-v2");
}

TEST(Platform, RedeployTearsDownAProvisionedInstanceStillRunningTheOldVersion) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.provisioned_price_per_gb_second = Money::nano_usd(4'167);
  cfg.memory_quantum = DataSize::megabytes(1);  // allow an exact 1 GB config
  Platform p(s, cfg);
  const auto id = p.deploy({"fn", DataSize::gigabytes(1),
                            DataSize::megabytes(10)});
  p.set_provisioned_concurrency(id, 1);
  bool cold = true;
  p.invoke(id, Cycles::giga(2),
           [&cold](const InvocationResult& r) { cold = r.cold_start; });
  s.run_until(TimePoint::origin() + Duration::millis(500));
  p.redeploy(id, {"fn-v2", DataSize::gigabytes(1), DataSize::megabytes(10)});
  EXPECT_EQ(p.warm_count(id), 1u);  // the new version's provisioned instance
  s.run();
  EXPECT_FALSE(cold);
  // The old version's instance is gone rather than pooled: one warm
  // instance, the one provisioned_cost bills.
  EXPECT_EQ(p.warm_count(id), 1u);
  const Money before = p.stats().provisioned_cost;
  s.schedule_after(Duration::seconds(100), [] {});
  s.run();
  // 1 instance x 1 GB x 100 s x 4167 nano$/GB-s.
  EXPECT_EQ((p.stats().provisioned_cost - before).count_nano_usd(),
            100 * 4'167);
}

TEST(Platform, RedeployDuringAnInvocationLeavesTheNextOneCold) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  s.run_until(TimePoint::origin() + Duration::millis(500));
  p.redeploy(id, small_fn("fn-v2"));
  // The v1 invocation finishes after the redeploy; its instance is not
  // kept warm for v2.
  s.run_until(TimePoint::origin() + Duration::seconds(2));
  EXPECT_EQ(p.warm_count(id), 0u);
  bool cold = false;
  p.invoke(id, Cycles::giga(2),
           [&cold](const InvocationResult& r) { cold = r.cold_start; });
  s.run_until(TimePoint::origin() + Duration::seconds(5));
  EXPECT_TRUE(cold);
  EXPECT_EQ(p.stats().cold_starts, 2u);
  EXPECT_EQ(p.warm_count(id), 1u);  // the v2 instance is pooled as usual
}

TEST(Platform, PriceWindowsDiscountOffPeak) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.price_windows = {{22, 6, 0.5}, {6, 22, 1.0}};  // wrap-around window
  Platform p(s, cfg);
  const auto day = p.invocation_cost(DataSize::gigabytes(1),
                                     Duration::seconds(1),
                                     TimePoint::origin() + Duration::hours(12));
  const auto night = p.invocation_cost(
      DataSize::gigabytes(1), Duration::seconds(1),
      TimePoint::origin() + Duration::hours(23));
  const auto early = p.invocation_cost(
      DataSize::gigabytes(1), Duration::seconds(1),
      TimePoint::origin() + Duration::hours(26));  // 02:00 next day
  EXPECT_LT(night, day);
  EXPECT_EQ(night, early);
  EXPECT_DOUBLE_EQ(p.price_multiplier(TimePoint::origin() + Duration::hours(23)),
                   0.5);
}

TEST(Platform, StatsAccumulateAcrossInvocations) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  for (int i = 0; i < 3; ++i)
    p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  s.run();
  const auto st = p.stats();
  EXPECT_EQ(st.invocations, 3u);
  EXPECT_EQ(st.cold_starts, 3u);  // burst
  EXPECT_EQ(st.total_exec, Duration::seconds(3));
  EXPECT_GT(st.exec_cost, Money::zero());
  EXPECT_EQ(st.request_cost.count_nano_usd(), 3 * 200);
  EXPECT_EQ(p.total_cost(), st.exec_cost + st.request_cost + st.provisioned_cost);
}

TEST(Platform, InvalidConfigRejected) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.account_concurrency = 0;
  EXPECT_THROW(Platform(s, cfg), ConfigError);
  cfg = fast_config();
  cfg.price_windows = {{25, 3, 1.0}};
  EXPECT_THROW(Platform(s, cfg), ConfigError);
  // Fields the timing, billing and cold-start math divides by or adds:
  // each is refused at construction, not by a division by zero or a
  // contract check inside a simulator event.
  const struct {
    const char* field;
    void (*set)(PlatformConfig&);
  } bad_fields[] = {
      {"zero min_memory",
       [](PlatformConfig& c) { c.min_memory = DataSize::zero(); }},
      {"zero billing_quantum",
       [](PlatformConfig& c) { c.billing_quantum = Duration::zero(); }},
      {"negative billing_quantum",
       [](PlatformConfig& c) { c.billing_quantum = -Duration::millis(1); }},
      {"negative price_per_gb_second",
       [](PlatformConfig& c) { c.price_per_gb_second = Money::nano_usd(-1); }},
      {"negative price_per_request",
       [](PlatformConfig& c) { c.price_per_request = Money::nano_usd(-1); }},
      {"negative provisioned_price_per_gb_second",
       [](PlatformConfig& c) {
         c.provisioned_price_per_gb_second = Money::nano_usd(-1);
       }},
      {"zero image_install_rate",
       [](PlatformConfig& c) { c.image_install_rate = DataRate{}; }},
      {"negative keep_alive",
       [](PlatformConfig& c) { c.keep_alive = Duration::micros(-1); }},
      {"negative cold_start_base",
       [](PlatformConfig& c) { c.cold_start_base = Duration::micros(-1); }},
  };
  for (const auto& bad : bad_fields) {
    cfg = fast_config();
    bad.set(cfg);
    EXPECT_THROW(Platform(s, cfg), ConfigError) << bad.field;
  }
  // Zero prices, keep-alive and cold-start base are valid.
  cfg = fast_config();
  cfg.price_per_gb_second = Money::zero();
  cfg.price_per_request = Money::zero();
  cfg.provisioned_price_per_gb_second = Money::zero();
  cfg.keep_alive = Duration::zero();
  cfg.cold_start_base = Duration::zero();
  EXPECT_NO_THROW(Platform(s, cfg));
}

TEST(PlatformCheckpoint, ResumeCreditsPriorExecAndBillsOnlyRemainder) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  InvocationResult res;
  // 2 Gcycles = 1 s at this config; half of it is already done elsewhere.
  p.resume(id, Cycles::giga(2), Duration::millis(500),
           [&res](const InvocationResult& r) { res = r; });
  s.run();
  EXPECT_FALSE(res.preempted);
  EXPECT_EQ(res.exec_time, Duration::millis(500));
  EXPECT_EQ(res.exec_credit, Duration::millis(500));
  EXPECT_EQ(res.cost, p.invocation_cost(DataSize::megabytes(1792),
                                        Duration::millis(500), res.started));
}

TEST(PlatformCheckpoint, CreditBeyondFullExecClampsToImmediateCompletion) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  InvocationResult res;
  p.resume(id, Cycles::giga(2), Duration::seconds(5),
           [&res](const InvocationResult& r) { res = r; });
  s.run();
  EXPECT_FALSE(res.preempted);
  EXPECT_EQ(res.exec_time, Duration::zero());
}

TEST(PlatformCheckpoint, PreemptBillsPartialSpotRunAtSpotRate) {
  // The ISSUE-7 regression: a checkpointed spot run bills exactly its
  // partial exec at the spot price, and resuming credits that exec.
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.spot_mean_time_to_preempt = Duration::zero();  // only forced preempts
  Platform p(s, cfg);
  const auto id = p.deploy(small_fn());
  InvocationResult partial;
  const auto inv = p.invoke(
      id, Cycles::giga(2), [&partial](const InvocationResult& r) { partial = r; },
      Tier::Spot);
  // Cold start is 300 ms (10 MB at 400 Mb/s + 100 ms base); checkpoint
  // 400 ms in, i.e. 100 ms into execution.
  s.schedule_at(TimePoint::origin() + Duration::millis(400),
                [&p, inv] { EXPECT_TRUE(p.checkpoint_preempt(inv)); });
  s.run();
  EXPECT_TRUE(partial.preempted);
  EXPECT_EQ(partial.tier, Tier::Spot);
  EXPECT_EQ(partial.exec_time, Duration::millis(100));
  EXPECT_EQ(partial.cost,
            p.invocation_cost(DataSize::megabytes(1792), Duration::millis(100),
                              partial.started, Tier::Spot));
  // Spot rate really is the discounted one.
  EXPECT_LT(partial.cost,
            p.invocation_cost(DataSize::megabytes(1792), Duration::millis(100),
                              partial.started, Tier::OnDemand));

  // Resume with the partial run credited: only the 900 ms tail runs and
  // bills (here on-demand), so nothing is double-charged.
  InvocationResult rest;
  p.resume(id, Cycles::giga(2), partial.exec_time,
           [&rest](const InvocationResult& r) { rest = r; });
  s.run();
  EXPECT_FALSE(rest.preempted);
  EXPECT_EQ(rest.exec_time, Duration::millis(900));
  EXPECT_EQ(rest.exec_credit, Duration::millis(100));
  EXPECT_EQ(rest.cost, p.invocation_cost(DataSize::megabytes(1792),
                                         Duration::millis(900), rest.started));
  EXPECT_EQ(partial.exec_time + rest.exec_time, Duration::seconds(1));
}

TEST(PlatformCheckpoint, QueuedInvocationCheckpointsWithZeroExecAndCost) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.account_concurrency = 1;
  Platform p(s, cfg);
  const auto id = p.deploy(small_fn());
  p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  InvocationResult queued;
  const auto second =
      p.invoke(id, Cycles::giga(2),
               [&queued](const InvocationResult& r) { queued = r; });
  const auto st = p.in_flight(second);
  ASSERT_TRUE(st.has_value());
  EXPECT_FALSE(st->executing);
  EXPECT_TRUE(p.checkpoint_preempt(second));
  EXPECT_TRUE(queued.preempted);
  EXPECT_EQ(queued.exec_time, Duration::zero());
  EXPECT_EQ(queued.cost, Money::zero());
  EXPECT_FALSE(p.in_flight(second).has_value());
  s.run();
  EXPECT_EQ(p.stats().invocations, 2u);
}

TEST(PlatformCheckpoint, InFlightReportsExecutionProgress) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  const auto inv =
      p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  s.schedule_at(TimePoint::origin() + Duration::millis(800), [&p, inv] {
    const auto st = p.in_flight(inv);
    ASSERT_TRUE(st.has_value());
    EXPECT_TRUE(st->executing);
    EXPECT_EQ(st->consumed, Duration::millis(500));  // 300 ms was cold start
    EXPECT_EQ(st->remaining, Duration::millis(500));
  });
  s.run();
  EXPECT_FALSE(p.in_flight(inv).has_value());
}

TEST(PlatformCheckpoint, UnknownHandleReturnsFalse) {
  sim::Simulator s;
  Platform p(s, fast_config());
  const auto id = p.deploy(small_fn());
  const auto inv =
      p.invoke(id, Cycles::giga(2), [](const InvocationResult&) {});
  s.run();
  EXPECT_FALSE(p.checkpoint_preempt(inv));  // already completed
  EXPECT_FALSE(p.checkpoint_preempt(inv + 17));
}

/// Coverage of one randomized throttle scenario.
struct ThrottleCoverage {
  std::size_t queued_checkpoints[3] = {0, 0, 0};  ///< head, middle, tail
  std::size_t running_checkpoints = 0;
  std::size_t stale_ids_on_reused_slots = 0;
  std::size_t never_minted_ids = 0;
};

/// Interleaves invoke/resume, checkpoints of queued (head, middle, tail)
/// and executing invocations, in_flight() polls and completions at an
/// account limit of `limit`, checking the throttle after every action.
void run_throttle_scenario(std::uint64_t seed, std::size_t limit,
                           ThrottleCoverage& cov) {
  SCOPED_TRACE(testing::Message() << "seed " << seed << " limit " << limit);
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.account_concurrency = limit;
  Platform p(s, cfg);
  const auto fn = p.deploy(small_fn());
  Rng rng(seed);

  constexpr std::size_t kSteps = 300;
  std::vector<InvocationId> ids;  // by submission order
  std::vector<int> fired;         // callbacks per submission
  std::vector<bool> queued_checkpoint;
  std::vector<InvocationResult> results;
  std::map<InvocationId, std::size_t> live;  // id -> submission order
  std::set<InvocationId> minted;      // every id handed out so far
  std::vector<InvocationId> retired;  // delivered: completed or checkpointed
  std::size_t last_admitted = 0;      // 1 + order of the last admission
  std::set<std::size_t> admitted;
  results.resize(kSteps);  // at most one submission per step

  // Live invocations in submission order, split by state.
  const auto partition = [&](std::vector<std::size_t>& executing,
                             std::vector<std::size_t>& queued) {
    executing.clear();
    queued.clear();
    for (const auto& [id, k] : live) {
      const auto st = p.in_flight(id);
      ASSERT_TRUE(st.has_value()) << "live invocation " << k;
      (st->executing ? executing : queued).push_back(k);
    }
    std::sort(executing.begin(), executing.end());
    std::sort(queued.begin(), queued.end());
  };

  const auto check = [&] {
    std::vector<std::size_t> executing;
    std::vector<std::size_t> queued;
    partition(executing, queued);
    ASSERT_EQ(executing.size(), p.concurrency_in_use());
    ASSERT_LE(p.concurrency_in_use(), limit);
    // FIFO: every executing invocation was submitted before every queued
    // one, and admissions happen in submission order.
    if (!queued.empty()) {
      ASSERT_EQ(executing.size(), limit);
      ASSERT_LT(executing.back(), queued.front());
    }
    for (const std::size_t k : executing) {
      if (!admitted.insert(k).second) continue;
      ASSERT_GE(k, last_admitted) << "admitted out of order";
      last_admitted = k + 1;
    }
    // Delivered and never-minted handles answer nothing, even once their
    // slots hold other invocations.
    std::set<std::uint64_t> live_slots;
    for (const auto& [id, k] : live) live_slots.insert(id & 0xFFFFFFFFu);
    for (const InvocationId id : retired) {
      ASSERT_FALSE(p.in_flight(id).has_value());
      ASSERT_FALSE(p.checkpoint_preempt(id));
      if (live_slots.count(id & 0xFFFFFFFFu) != 0)
        ++cov.stale_ids_on_reused_slots;
    }
    for (const InvocationId id : ids) {
      const InvocationId forged = id + 17;
      if (live.count(forged) != 0) continue;
      ASSERT_FALSE(p.in_flight(forged).has_value());
      ASSERT_FALSE(p.checkpoint_preempt(forged));
      if (minted.count(forged) == 0) ++cov.never_minted_ids;
    }
  };

  const auto submit = [&] {
    const std::size_t k = ids.size();
    fired.push_back(0);
    queued_checkpoint.push_back(false);
    auto done = [&, k](const InvocationResult& r) {
      ++fired[k];
      results[k] = r;
    };
    const Cycles work =
        Cycles::giga(static_cast<std::uint64_t>(rng.uniform_int(1, 3)));
    const InvocationId id =
        rng.bernoulli(0.25)
            ? p.resume(fn, work, Duration::millis(rng.uniform_int(0, 1500)),
                       done)
            : p.invoke(fn, work, done);
    ASSERT_NE(id, 0u);
    ASSERT_TRUE(minted.insert(id).second) << "id minted twice";
    ids.push_back(id);
    live.emplace(id, k);
  };

  const auto retire_fired = [&] {
    for (auto it = live.begin(); it != live.end();) {
      if (fired[it->second] == 0) {
        ++it;
        continue;
      }
      retired.push_back(it->first);
      it = live.erase(it);
    }
  };

  for (std::size_t step = 0; step < kSteps; ++step) {
    const double action = rng.uniform(0.0, 1.0);
    std::vector<std::size_t> executing;
    std::vector<std::size_t> queued;
    partition(executing, queued);
    if (action < 0.45) {
      submit();
    } else if (action < 0.6 && !queued.empty()) {
      // Checkpoint a queued invocation at the head, middle or tail.
      const auto where = static_cast<std::size_t>(rng.uniform_int(0, 2));
      const std::size_t pos = where == 0   ? 0
                              : where == 1 ? queued.size() / 2
                                           : queued.size() - 1;
      const std::size_t k = queued[pos];
      const std::size_t kind = pos == 0                   ? 0
                               : pos + 1 == queued.size() ? 2
                                                          : 1;
      ++cov.queued_checkpoints[kind];
      queued_checkpoint[k] = true;
      ASSERT_TRUE(p.checkpoint_preempt(ids[k]));
      ASSERT_EQ(fired[k], 1);
      EXPECT_TRUE(results[k].preempted);
      EXPECT_EQ(results[k].exec_time, Duration::zero());
      EXPECT_EQ(results[k].cost, Money::zero());
    } else if (action < 0.7 && !executing.empty()) {
      const std::size_t k = executing[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(executing.size()) - 1))];
      ++cov.running_checkpoints;
      ASSERT_TRUE(p.checkpoint_preempt(ids[k]));
      ASSERT_EQ(fired[k], 1);
      EXPECT_TRUE(results[k].preempted);
    } else {
      s.step();  // a completion (or a keep-alive expiry)
    }
    retire_fired();
    check();
    if (testing::Test::HasFatalFailure()) return;
  }
  while (s.step()) {
    retire_fired();
    check();
    if (testing::Test::HasFatalFailure()) return;
  }
  EXPECT_TRUE(live.empty());
  EXPECT_EQ(p.concurrency_in_use(), 0u);
  for (std::size_t k = 0; k < ids.size(); ++k) {
    EXPECT_EQ(fired[k], 1) << "callback of invocation " << k;
  }
  // Admission times, from the results, rise with submission order among
  // the invocations not checkpointed while queued.
  TimePoint last;
  for (std::size_t k = 0; k < ids.size(); ++k) {
    if (queued_checkpoint[k]) continue;
    const TimePoint admission = results[k].submitted + results[k].queue_wait;
    EXPECT_GE(admission, last) << "invocation " << k;
    last = admission;
  }
  EXPECT_EQ(p.stats().invocations, ids.size());
}

TEST(PlatformThrottle, CallbackInvokesAgainIntoItsOwnSlotBehindTheQueue) {
  sim::Simulator s;
  auto cfg = fast_config();
  cfg.account_concurrency = 1;
  Platform p(s, cfg);
  const auto fn = p.deploy(small_fn());
  std::vector<char> order;
  InvocationId a = 0;
  InvocationId b = 0;
  a = p.invoke(fn, Cycles::giga(2), [&](const InvocationResult&) {
    order.push_back('a');
    EXPECT_FALSE(p.in_flight(a).has_value());
    // The account is free, but `c` still waits: `b` queues behind it.
    b = p.invoke(fn, Cycles::giga(2),
                 [&order](const InvocationResult&) { order.push_back('b'); });
  });
  p.invoke(fn, Cycles::giga(2),
           [&order](const InvocationResult&) { order.push_back('c'); });
  s.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'c', 'b'}));
  EXPECT_EQ(p.stats().throttled, 2u);
  // `b` took the slot `a` released, under a new generation.
  EXPECT_EQ(b & 0xFFFFFFFFu, a & 0xFFFFFFFFu);
  EXPECT_NE(b, a);
  EXPECT_FALSE(p.checkpoint_preempt(a));
}

TEST(PlatformThrottle, RandomizedQueueIsFifoAndDeliversOnce) {
  ThrottleCoverage cov;
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    for (const std::size_t limit : {std::size_t{2}, std::size_t{3}})
      run_throttle_scenario(seed, limit, cov);
  // The scenarios reach every case they are meant to check.
  EXPECT_GT(cov.queued_checkpoints[0], 0u) << "head";
  EXPECT_GT(cov.queued_checkpoints[1], 0u) << "middle";
  EXPECT_GT(cov.queued_checkpoints[2], 0u) << "tail";
  EXPECT_GT(cov.running_checkpoints, 0u);
  EXPECT_GT(cov.stale_ids_on_reused_slots, 0u);
  EXPECT_GT(cov.never_minted_ids, 0u);
}

}  // namespace
}  // namespace ntco::serverless
