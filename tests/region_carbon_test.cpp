// Region selection and carbon-aware deferral: the two placement freedoms
// only delay-tolerant work has.

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <iterator>

#include "ntco/alloc/region_selector.hpp"
#include "ntco/common/error.hpp"
#include "ntco/common/rng.hpp"
#include "ntco/sched/carbon_planner.hpp"

namespace ntco {
namespace {

TimePoint at_hours(double h) {
  return TimePoint::origin() + Duration::from_seconds(h * 3600.0);
}

TEST(RegionSelector, MoneyOnlyPicksCheapestTariff) {
  const alloc::RegionSelector sel(alloc::default_regions(), {1.0, 0.0, 0.0});
  const auto pick = sel.choose(Money::from_usd(0.001), Duration::seconds(10));
  EXPECT_EQ(sel.regions()[pick.region_index].name, "ap-south");
  EXPECT_NEAR(pick.cost_per_invocation.to_usd(), 0.001 * 0.92, 1e-9);
}

TEST(RegionSelector, LatencyWeightPullsToTheNearestRegion) {
  const alloc::RegionSelector sel(alloc::default_regions(),
                                  {1.0, /*latency=*/10.0, 0.0});
  const auto pick = sel.choose(Money::from_usd(0.001), Duration::seconds(10));
  EXPECT_EQ(sel.regions()[pick.region_index].name, "near-metro");
  EXPECT_TRUE(pick.round_trip_overhead.is_zero());
}

TEST(RegionSelector, CarbonWeightPicksTheHydroGrid) {
  const alloc::RegionSelector sel(alloc::default_regions(),
                                  {1.0, 0.0, /*carbon=*/1.0});
  const auto pick = sel.choose(Money::from_usd(0.001), Duration::seconds(60));
  EXPECT_EQ(sel.regions()[pick.region_index].name, "eu-north");
}

TEST(RegionSelector, EmissionsScaleWithExecutionTime) {
  const alloc::RegionSelector sel(alloc::default_regions(), {0.0, 0.0, 1.0});
  const auto short_run =
      sel.score_all(Money::zero(), Duration::seconds(10));
  const auto long_run =
      sel.score_all(Money::zero(), Duration::seconds(100));
  for (std::size_t i = 0; i < short_run.size(); ++i)
    EXPECT_NEAR(long_run[i].gco2_per_invocation,
                10.0 * short_run[i].gco2_per_invocation, 1e-9);
  // 10 W for 3600 s = 0.01 kWh; at 420 g/kWh that is 4.2 g.
  const auto hour = sel.score_all(Money::zero(), Duration::hours(1));
  EXPECT_NEAR(hour[1].gco2_per_invocation, 4.2, 1e-9);
}

TEST(RegionSelector, RejectsMalformedMenus) {
  EXPECT_THROW(alloc::RegionSelector({}, {}), ConfigError);
  EXPECT_THROW(
      alloc::RegionSelector({{"bad", 0.0, Duration::zero(), 100.0}}, {}),
      ConfigError);
}

TEST(CarbonProfile, SolarGridShape) {
  const auto grid = sched::CarbonProfile::solar_grid();
  // Midday trough, evening peak, wraps across days.
  EXPECT_LT(grid.at(at_hours(12)), grid.at(at_hours(3)));
  EXPECT_GT(grid.at(at_hours(19)), grid.at(at_hours(12)) * 3.0);
  EXPECT_DOUBLE_EQ(grid.at(at_hours(12)), grid.at(at_hours(36)));
}

TEST(CarbonProfile, FlatAndValidation) {
  const auto flat = sched::CarbonProfile::flat(250.0);
  EXPECT_DOUBLE_EQ(flat.at(at_hours(0)), 250.0);
  EXPECT_DOUBLE_EQ(flat.at(at_hours(17.5)), 250.0);
  std::array<double, 24> bad{};
  bad[3] = -1.0;
  EXPECT_THROW(sched::CarbonProfile{bad}, ConfigError);
}

TEST(CarbonAwarePlanner, DefersIntoTheSolarTrough) {
  const sched::CarbonAwarePlanner planner(
      sched::CarbonProfile::solar_grid());
  // Released 02:00 with 14 h slack: the trough (11:00-13:00) is reachable.
  const auto start = planner.plan_start(at_hours(2), Duration::hours(14),
                                        Duration::minutes(10));
  EXPECT_GE(start, at_hours(10.5));
  EXPECT_LE(start, at_hours(13));
  EXPECT_DOUBLE_EQ(planner.profile().at(start), 160.0);
}

TEST(CarbonAwarePlanner, TightSlackRunsImmediately) {
  const sched::CarbonAwarePlanner planner(
      sched::CarbonProfile::solar_grid());
  const auto start = planner.plan_start(at_hours(19), Duration::minutes(30),
                                        Duration::minutes(20));
  EXPECT_EQ(start, at_hours(19));  // the peak, but there is no choice
}

TEST(CarbonAwarePlanner, FlatGridNeverDefers) {
  const sched::CarbonAwarePlanner planner(sched::CarbonProfile::flat(300.0));
  const auto start = planner.plan_start(at_hours(2), Duration::hours(20),
                                        Duration::minutes(10));
  EXPECT_EQ(start, at_hours(2));  // nothing to gain by waiting
}

TEST(CarbonAwarePlanner, UnboundedSlackPlansTheFirstTrough) {
  // 02:00 plus Duration::max() overflows TimePoint; the latest start
  // saturates instead, and the first day's trough wins.
  const sched::CarbonAwarePlanner planner(
      sched::CarbonProfile::solar_grid());
  EXPECT_EQ(planner.plan_start(at_hours(2), Duration::max(),
                               Duration::minutes(10)),
            at_hours(11));
  EXPECT_EQ(planner.plan_start(at_hours(2), Duration::hours(24 * 3650),
                               Duration::minutes(10)),
            at_hours(11));
  // Released at 03:00:54.78 an hour before the end of time: 04:00 (450)
  // is cleaner than 03:00 (455), and its grid point is the last instant.
  const TimePoint end = TimePoint::at(Duration::max());
  const TimePoint late = end - Duration::hours(1);
  ASSERT_EQ(hour_of_day(late), 3);
  EXPECT_EQ(planner.plan_start(late, Duration::max(), Duration::zero()), end);
}

/// The scan plan_start() must reproduce: every kSearchStep grid point from
/// release up to the latest start, the earliest of the lowest intensity.
TimePoint grid_scan_start(const sched::CarbonProfile& profile,
                          TimePoint release, Duration slack, Duration est) {
  TimePoint latest = release + slack - est;
  if (latest < release) latest = release;
  TimePoint best = release;
  double best_intensity = profile.at(release);
  for (TimePoint t = release; t <= latest;
       t = t + sched::CarbonAwarePlanner::kSearchStep) {
    const double intensity = profile.at(t);
    if (intensity < best_intensity - 1e-12) {
      best_intensity = intensity;
      best = t;
    }
  }
  return best;
}

/// A random duration in [0, hours], on a coarse grid half the time so
/// hour and grid boundaries coincide with releases and deadlines.
Duration random_span(Rng& rng, std::int64_t hours) {
  const std::int64_t us =
      rng.uniform_int(0, Duration::hours(hours).count_micros());
  constexpr std::int64_t kGrids[] = {Duration::minutes(5).count_micros(),
                                     Duration::minutes(30).count_micros(),
                                     Duration::hours(1).count_micros()};
  if (rng.bernoulli(0.5)) return Duration::micros(us);
  const std::int64_t grid = kGrids[static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(std::size(kGrids)) - 1))];
  return Duration::micros(us / grid * grid);
}

/// The solar grid, a flat grid, or a random curve: half the random ones
/// drawn from a few levels 1e-13 apart around the scan's 1e-12 tie
/// tolerance, so ties and near-ties recur within a day.
sched::CarbonProfile random_profile(Rng& rng) {
  switch (rng.uniform_int(0, 3)) {
    case 0: return sched::CarbonProfile::solar_grid();
    case 1: return sched::CarbonProfile::flat(rng.uniform(0.0, 500.0));
    default: break;
  }
  constexpr double kLevels[] = {150.0, 150.0 + 1e-13, 150.0 - 1e-13,
                                150.0 - 2e-12, 300.0, 450.0};
  const bool levels = rng.bernoulli(0.5);
  std::array<double, 24> curve{};
  for (double& v : curve)
    v = levels ? kLevels[static_cast<std::size_t>(rng.uniform_int(
                     0, static_cast<std::int64_t>(std::size(kLevels)) - 1))]
               : rng.uniform(0.0, 500.0);
  return sched::CarbonProfile(curve);
}

TEST(CarbonAwarePlanner, HourSteppedScanMatchesTheGridScan) {
  // Releases over 5 days, slacks up to 3 days, estimates up to the slack
  // and an hour past it.
  Rng rng(29);
  for (int c = 0; c < 20'000; ++c) {
    const sched::CarbonAwarePlanner planner(random_profile(rng));
    const TimePoint release = TimePoint::at(random_span(rng, 5 * 24));
    const Duration slack = random_span(rng, 3 * 24);
    const Duration est = Duration::micros(
        rng.uniform_int(0, (slack + Duration::hours(1)).count_micros()));
    ASSERT_EQ(planner.plan_start(release, slack, est),
              grid_scan_start(planner.profile(), release, slack, est))
        << "case " << c;
  }
}

TEST(CarbonAwarePlanner, EmissionsUseTheStartHourIntensity) {
  const sched::CarbonAwarePlanner planner(
      sched::CarbonProfile::solar_grid());
  EXPECT_DOUBLE_EQ(planner.emissions(at_hours(12), 0.5), 80.0);  // 160 x 0.5
  EXPECT_DOUBLE_EQ(planner.emissions(at_hours(19), 0.5), 260.0);
}

}  // namespace
}  // namespace ntco
