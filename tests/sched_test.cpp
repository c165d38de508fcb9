#include "ntco/sched/deferred_scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "ntco/common/rng.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"

namespace ntco::sched {
namespace {

serverless::PlatformConfig night_discount() {
  serverless::PlatformConfig cfg;
  cfg.core_speed = Frequency::gigahertz(2.5);
  // Half price between 22:00 and 06:00.
  cfg.price_windows = {{22, 6, 0.5}, {6, 22, 1.0}};
  return cfg;
}

serverless::FunctionId deploy_fn(serverless::Platform& p) {
  return p.deploy({"job-runner", DataSize::megabytes(1792),
                   DataSize::megabytes(20)});
}

TEST(DeferredScheduler, ImmediatePolicyStartsAtRelease) {
  sim::Simulator s;
  serverless::Platform p(s, night_discount());
  DeferredScheduler sched(p, {Policy::Immediate});
  const Duration slack = Duration::hours(12);
  const auto release = TimePoint::origin() + Duration::hours(9);
  EXPECT_EQ(sched.plan_start(release, slack, Duration::seconds(4)), release);
}

TEST(DeferredScheduler, CheapestWindowDefersIntoDiscount) {
  sim::Simulator s;
  serverless::Platform p(s, night_discount());
  DeferredScheduler sched(p, {Policy::CheapestWindow});
  // Released 09:00 with 16 h slack: the 22:00 window is reachable.
  const Duration slack = Duration::hours(16);
  const auto release = TimePoint::origin() + Duration::hours(9);
  const auto start = sched.plan_start(release, slack, Duration::seconds(4));
  EXPECT_GE(start, TimePoint::origin() + Duration::hours(22));
  EXPECT_DOUBLE_EQ(p.price_multiplier(start), 0.5);
}

TEST(DeferredScheduler, TightSlackForbidsDeferral) {
  sim::Simulator s;
  serverless::Platform p(s, night_discount());
  DeferredScheduler sched(p, {Policy::CheapestWindow});
  // Released 09:00 with 2 h slack: cannot reach the discount window.
  const Duration slack = Duration::hours(2);
  const auto release = TimePoint::origin() + Duration::hours(9);
  const auto start = sched.plan_start(release, slack, Duration::seconds(4));
  EXPECT_EQ(start, release);  // no cheaper reachable tariff
}

TEST(DeferredScheduler, DeferralNeverViolatesLatestStart) {
  sim::Simulator s;
  serverless::Platform p(s, night_discount());
  DeferredScheduler sched(p, {Policy::CheapestWindow});
  const Duration slack = Duration::hours(16);
  const auto release = TimePoint::origin() + Duration::hours(9);
  const Duration est = Duration::minutes(30);
  const auto start = sched.plan_start(release, slack, est);
  EXPECT_LE(start + est, release + slack);
}

TEST(DeferredScheduler, LatestStartClampsToRelease) {
  sim::Simulator s;
  serverless::Platform p(s, night_discount());
  DeferredScheduler sched(p, {});
  const Duration slack = Duration::minutes(1);
  const auto release = TimePoint::origin() + Duration::hours(1);
  // Estimated duration exceeds the slack: start immediately (will miss).
  EXPECT_EQ(sched.latest_start(release, slack, Duration::minutes(5)), release);
}

TEST(DeferredScheduler, BatchedAlignsToBoundary) {
  sim::Simulator s;
  serverless::Platform p(s, night_discount());
  DeferredScheduler sched(p, {Policy::Batched});
  const Duration slack = Duration::hours(16);
  const auto release = TimePoint::origin() + Duration::hours(9) +
                       Duration::minutes(7);
  const auto start = sched.plan_start(release, slack, Duration::seconds(4));
  // The 15-minute tariff scan first reaches the discount at 22:07; the
  // batch grid then moves the start on to 22:10.
  EXPECT_EQ(start.since_origin().count_micros() %
                DeferredScheduler::kBatchInterval.count_micros(),
            0);
  EXPECT_EQ(start, TimePoint::origin() + Duration::hours(22) +
                       Duration::minutes(10));
  EXPECT_DOUBLE_EQ(p.price_multiplier(start), 0.5);
}

/// The scan plan_start() must reproduce: every kSearchStep grid point from
/// release up to the latest start, then the Batched alignment.
TimePoint grid_scan_start(const serverless::Platform& p, Policy policy,
                          TimePoint release, Duration slack, Duration est) {
  if (policy == Policy::Immediate) return release;
  TimePoint latest = release + slack - est;
  if (latest < release) latest = release;
  TimePoint best = release;
  double best_mult = p.price_multiplier(release);
  for (TimePoint t = release; t <= latest;
       t = t + DeferredScheduler::kSearchStep) {
    const double m = p.price_multiplier(t);
    if (m < best_mult - 1e-12) {
      best_mult = m;
      best = t;
    }
  }
  if (policy == Policy::Batched && best > release) {
    const auto interval = DeferredScheduler::kBatchInterval.count_micros();
    const auto offset = best.since_origin().count_micros();
    const TimePoint batched = TimePoint::at(
        Duration::micros((offset + interval - 1) / interval * interval));
    if (batched <= latest && p.price_multiplier(batched) <= best_mult + 1e-12)
      best = batched;
  }
  return best;
}

/// A random tariff: 0-3 windows, wrapping and overlapping ones among them,
/// with multipliers 1e-13 apart around the scan's 1e-12 tie tolerance.
serverless::PlatformConfig random_tariff(Rng& rng) {
  constexpr double kMultipliers[] = {1.0,         1.0 - 1e-13, 1.0 + 1e-13,
                                     1.0 - 2e-12, 0.5,         0.5 + 1e-13,
                                     0.5 - 1e-13, 0.25};
  serverless::PlatformConfig cfg;
  cfg.price_windows.clear();
  const auto windows = rng.uniform_int(0, 3);
  for (std::int64_t w = 0; w < windows; ++w)
    cfg.price_windows.push_back(
        {static_cast<int>(rng.uniform_int(0, 23)),
         static_cast<int>(rng.uniform_int(0, 24)),
         kMultipliers[static_cast<std::size_t>(rng.uniform_int(
             0, static_cast<std::int64_t>(std::size(kMultipliers)) - 1))]});
  return cfg;
}

/// A random duration in [0, hours], on a coarse grid half the time so
/// hour and grid boundaries coincide with releases and deadlines.
Duration random_span(Rng& rng, std::int64_t hours) {
  const std::int64_t us =
      rng.uniform_int(0, Duration::hours(hours).count_micros());
  constexpr std::int64_t kGrids[] = {Duration::minutes(5).count_micros(),
                                     Duration::minutes(15).count_micros(),
                                     Duration::hours(1).count_micros()};
  if (rng.bernoulli(0.5)) return Duration::micros(us);
  const std::int64_t grid = kGrids[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(std::size(kGrids)) - 1))];
  return Duration::micros(us / grid * grid);
}

TEST(DeferredScheduler, HourSteppedScanMatchesTheGridScan) {
  // Releases over 5 days, slacks up to 3 days, estimates up to the slack
  // and a little past it.
  Rng rng(27);
  sim::Simulator s;
  for (int c = 0; c < 20'000; ++c) {
    const serverless::Platform p(s, random_tariff(rng));
    const TimePoint release = TimePoint::at(random_span(rng, 5 * 24));
    const Duration slack = random_span(rng, 3 * 24);
    const Duration est = Duration::micros(
        rng.uniform_int(0, (slack + Duration::hours(1)).count_micros()));
    for (const Policy policy : {Policy::CheapestWindow, Policy::Batched})
      ASSERT_EQ(DeferredScheduler(p, {policy}).plan_start(release, slack, est),
                grid_scan_start(p, policy, release, slack, est))
          << "case " << c << ", policy " << static_cast<int>(policy);
  }
}

TEST(DeferredScheduler, HugeSlackScansOneDay) {
  // A grid point a day or more after release cannot beat the first day's,
  // so a slack up to the end of time plans as a two-day one does, at the
  // cost of at most a day of hourly probes.
  sim::Simulator s;
  const serverless::Platform p(s, night_discount());
  const TimePoint release = TimePoint::at(Duration::hours(9) +
                                          Duration::minutes(7));
  const Duration huge = Duration::max() - release.since_origin();
  for (const Policy policy : {Policy::CheapestWindow, Policy::Batched}) {
    const DeferredScheduler sched(p, {policy});
    EXPECT_EQ(sched.plan_start(release, huge, Duration::seconds(4)),
              grid_scan_start(p, policy, release, Duration::hours(48),
                              Duration::zero()))
        << static_cast<int>(policy);
  }
}

TEST(DeferredExecutor, DeferredJobsCostLessThanImmediate) {
  // Two identical simulations; only the policy differs.
  auto run = [](Policy policy) {
    sim::Simulator s;
    serverless::Platform p(s, night_discount());
    const auto fn = deploy_fn(p);
    DeferredExecutor exec(
        s, p, fn,
        DeferredScheduler(p, {policy}));
    // Jobs released across the working day with overnight slack.
    for (int h = 8; h < 18; ++h)
      s.schedule_at(TimePoint::origin() + Duration::hours(h), [&exec, h] {
        exec.submit(DeferredJob{"job-" + std::to_string(h),
                                Cycles::giga(250), Duration::hours(20)});
      });
    s.run();
    return exec.report();
  };

  const auto immediate = run(Policy::Immediate);
  const auto deferred = run(Policy::CheapestWindow);
  ASSERT_EQ(immediate.jobs, 10u);
  ASSERT_EQ(deferred.jobs, 10u);
  EXPECT_EQ(immediate.deadline_misses, 0u);
  EXPECT_EQ(deferred.deadline_misses, 0u);
  // Night tariff is half price: the deferred bill must be clearly lower.
  EXPECT_LT(deferred.total_cost, immediate.total_cost * 0.7);
  // Deferral trades completion latency for money.
  EXPECT_GT(deferred.completion_latency_s.median(),
            immediate.completion_latency_s.median());
}

TEST(DeferredExecutor, ReportsMissesWhenSlackIsImpossible) {
  sim::Simulator s;
  serverless::Platform p(s, night_discount());
  const auto fn = deploy_fn(p);
  DeferredExecutor exec(s, p, fn, DeferredScheduler(p, {}));
  // 250 Gcycles at 2.5 GHz is 100 s; 10 s slack cannot be met.
  exec.submit(DeferredJob{"hopeless", Cycles::giga(250),
                          Duration::seconds(10)});
  s.run();
  EXPECT_EQ(exec.report().jobs, 1u);
  EXPECT_EQ(exec.report().deadline_misses, 1u);
  EXPECT_DOUBLE_EQ(exec.report().miss_rate(), 1.0);
}

struct PoisonRun {
  DeferredReport report;
  std::string trace;
  std::optional<std::uint64_t> rejected_counter;
};

/// Two valid jobs submitted from one simulator event at 9 h, with a job of
/// slack `poison` between them when one is given.
PoisonRun run_with_poison(Policy policy, std::optional<Duration> poison) {
  sim::Simulator s;
  serverless::Platform p(s, night_discount());
  const auto fn = deploy_fn(p);
  DeferredExecutor exec(s, p, fn, DeferredScheduler(p, {policy}));
  obs::JsonlTraceWriter trace;
  obs::MetricsRegistry metrics;
  exec.attach_observer(&trace, &metrics);
  s.schedule_at(TimePoint::origin() + Duration::hours(9), [&] {
    exec.submit(DeferredJob{"first", Cycles::giga(250), Duration::hours(20)});
    if (poison)
      exec.submit(DeferredJob{"poison", Cycles::giga(250), *poison});
    exec.submit(DeferredJob{"second", Cycles::giga(100), Duration::hours(4)});
  });
  s.run();
  exec.publish(metrics);
  PoisonRun out{exec.report(), trace.str(), std::nullopt};
  if (const obs::Counter* c = metrics.find_counter("sched.rejected"))
    out.rejected_counter = c->value();
  return out;
}

TEST(DeferredExecutor, NegativeSlackJobIsRejectedUnderEveryPolicy) {
  // A negative slack, and slacks whose deadline 9 h + slack overflows
  // TimePoint.
  const Duration headroom = Duration::max() - Duration::hours(9);
  for (const Policy policy :
       {Policy::Immediate, Policy::CheapestWindow, Policy::Batched}) {
    const PoisonRun clean = run_with_poison(policy, std::nullopt);
    for (const Duration poison : {Duration::seconds(-1), Duration::max(),
                                  headroom + Duration::micros(1)}) {
      SCOPED_TRACE(testing::Message() << static_cast<int>(policy)
                                      << ", slack " << poison.count_micros()
                                      << " us");
      const PoisonRun poisoned = run_with_poison(policy, poison);
      EXPECT_EQ(clean.report.rejected, 0u);
      EXPECT_EQ(poisoned.report.rejected, 1u);
      // No row until the first rejection; then one.
      EXPECT_FALSE(clean.rejected_counter.has_value());
      EXPECT_EQ(poisoned.rejected_counter, std::optional<std::uint64_t>(1));
      // The trace is the clean one plus the rejection record.
      const std::string row =
          R"({"t_us":32400000000,"ev":"sched.job.rejected","job":"poison"})"
          "\n";
      const std::size_t at = poisoned.trace.find(row);
      ASSERT_NE(at, std::string::npos);
      std::string without = poisoned.trace;
      without.erase(at, row.size());
      EXPECT_EQ(without, clean.trace);

      // Every other field equals the clean run's.
      const DeferredReport& a = clean.report;
      const DeferredReport& b = poisoned.report;
      EXPECT_EQ(a.jobs, 2u);
      EXPECT_EQ(b.jobs, a.jobs);
      EXPECT_EQ(b.deadline_misses, a.deadline_misses);
      EXPECT_EQ(b.spot_attempts, a.spot_attempts);
      EXPECT_EQ(b.spot_preemptions, a.spot_preemptions);
      EXPECT_EQ(b.fallbacks, a.fallbacks);
      EXPECT_EQ(b.total_cost, a.total_cost);
      EXPECT_EQ(b.completion_latency_s.count(), a.completion_latency_s.count());
      if (b.completion_latency_s.count() != a.completion_latency_s.count())
        continue;
      const auto n = static_cast<double>(a.completion_latency_s.count() - 1);
      for (std::size_t i = 0; i < a.completion_latency_s.count(); ++i)
        EXPECT_EQ(b.completion_latency_s.quantile(static_cast<double>(i) / n),
                  a.completion_latency_s.quantile(static_cast<double>(i) / n));
    }
  }
}

}  // namespace
}  // namespace ntco::sched
