// Mobility schedules, the schedule-following MobileLink, and the
// WiFi-wait upload planner.

#include <gtest/gtest.h>

#include "ntco/common/error.hpp"
#include "ntco/net/mobility.hpp"
#include "ntco/sched/upload_planner.hpp"
#include "ntco/sim/simulator.hpp"

namespace ntco {
namespace {

TimePoint at_hours(double h) {
  return TimePoint::origin() + Duration::from_seconds(h * 3600.0);
}

TEST(MobilitySchedule, CommuterDayPhases) {
  const auto sched = net::MobilitySchedule::commuter_day();
  EXPECT_EQ(sched.cycle_length(), Duration::hours(24));
  EXPECT_EQ(sched.phase_count(), 5u);
  EXPECT_EQ(sched.phase_at(at_hours(3)).tech.name, "WiFi");     // home
  EXPECT_EQ(sched.phase_at(at_hours(8.5)).tech.name, "4G");     // commute
  EXPECT_EQ(sched.phase_at(at_hours(12)).tech.name, "WiFi");    // office
  EXPECT_EQ(sched.phase_at(at_hours(17.5)).tech.name, "4G");    // commute
  EXPECT_EQ(sched.phase_at(at_hours(22)).tech.name, "WiFi");    // home
  // Cellular is metered, WiFi free.
  EXPECT_GT(sched.phase_at(at_hours(8.5)).data_price_per_gb, Money::zero());
  EXPECT_TRUE(sched.phase_at(at_hours(12)).data_price_per_gb.is_zero());
}

TEST(MobilitySchedule, WrapsAcrossDays) {
  const auto sched = net::MobilitySchedule::commuter_day();
  EXPECT_EQ(sched.phase_at(at_hours(24 + 8.5)).tech.name, "4G");
  EXPECT_EQ(sched.phase_at(at_hours(48 + 3)).tech.name, "WiFi");
}

TEST(MobilitySchedule, RemainingInPhase) {
  const auto sched = net::MobilitySchedule::commuter_day();
  EXPECT_EQ(sched.remaining_in_phase(at_hours(8.5)), Duration::minutes(30));
  EXPECT_EQ(sched.remaining_in_phase(TimePoint::origin()),
            Duration::hours(8));
}

TEST(MobilitySchedule, NextMatchingFindsCurrentAndFuturePhases) {
  const auto sched = net::MobilitySchedule::commuter_day();
  const auto is_free = [](const net::ConnectivityPhase& p) {
    return p.data_price_per_gb.is_zero();
  };
  // Already on WiFi: now.
  EXPECT_EQ(sched.next_matching(at_hours(3), is_free), at_hours(3));
  // On the commute: the office WiFi starts at 09:00.
  EXPECT_EQ(sched.next_matching(at_hours(8.25), is_free), at_hours(9));
  // Nothing matches an impossible predicate.
  EXPECT_FALSE(sched
                   .next_matching(at_hours(0),
                                  [](const net::ConnectivityPhase&) {
                                    return false;
                                  })
                   .has_value());
}

TEST(MobilitySchedule, RejectsMalformedSchedules) {
  EXPECT_THROW(net::MobilitySchedule({}), ConfigError);
  EXPECT_THROW(net::MobilitySchedule(
                   {{net::profile_4g(), Duration::zero(), Money::zero()}}),
               ConfigError);
}

TEST(MobileLink, FollowsTheSimClock) {
  const auto sched = net::MobilitySchedule::commuter_day();
  sim::Simulator sim;
  net::MobileLink up(sched, /*uplink=*/true, [&sim] { return sim.now(); });

  // At t=0 (home WiFi): 40 Mb/s uplink.
  EXPECT_EQ(up.sample_rate(), net::profile_wifi().uplink);
  EXPECT_EQ(up.current_tech(), "WiFi");
  // Advance to the commute: 10 Mb/s 4G, metered.
  sim.schedule_at(at_hours(8.5), [] {});
  sim.run();
  EXPECT_EQ(up.sample_rate(), net::profile_4g().uplink);
  EXPECT_EQ(up.current_tech(), "4G");
  EXPECT_GT(up.current_data_price_per_gb(), Money::zero());
}

TEST(MobileLink, TransferTimeUsesPhaseRate) {
  const auto sched = net::MobilitySchedule::commuter_day();
  sim::Simulator sim;
  net::MobileLink up(sched, true, [&sim] { return sim.now(); });
  const auto on_wifi = up.transfer_time(DataSize::megabytes(10));
  sim.schedule_at(at_hours(8.5), [] {});
  sim.run();
  const auto on_4g = up.transfer_time(DataSize::megabytes(10));
  EXPECT_LT(on_wifi, on_4g);  // WiFi is 4x faster uplink
}

// ---------------------------------------------------------------- planner

sched::UploadPlanner make_planner(
    sched::UploadPlanner::Policy policy, const net::MobilitySchedule& sched) {
  sched::UploadPlanner::Config cfg;
  cfg.policy = policy;
  return sched::UploadPlanner(sched, device::budget_phone(), cfg);
}

TEST(UploadPlanner, ImmediatePolicyIgnoresConnectivity) {
  const auto sched = net::MobilitySchedule::commuter_day();
  const auto planner =
      make_planner(sched::UploadPlanner::Policy::Immediate, sched);
  const sched::UploadJob job{"photos", DataSize::megabytes(500),
                             Duration::hours(12)};
  const auto d = planner.plan(at_hours(8.25), job);  // on the commute
  EXPECT_EQ(d.start, at_hours(8.25));
  EXPECT_EQ(d.tech, "4G");
  EXPECT_NEAR(d.data_cost.to_usd(), 4.0 * 0.5, 1e-6);  // $4/GB x 0.5 GB
  EXPECT_TRUE(d.meets_deadline);
}

TEST(UploadPlanner, WaitForFreeDefersToWifi) {
  const auto sched = net::MobilitySchedule::commuter_day();
  const auto planner =
      make_planner(sched::UploadPlanner::Policy::WaitForFree, sched);
  const sched::UploadJob job{"photos", DataSize::megabytes(500),
                             Duration::hours(12)};
  const auto d = planner.plan(at_hours(8.25), job);
  EXPECT_EQ(d.start, at_hours(9));  // office WiFi
  EXPECT_EQ(d.tech, "WiFi");
  EXPECT_TRUE(d.data_cost.is_zero());
  EXPECT_TRUE(d.meets_deadline);
  // Faster link also means less radio-on energy.
  const auto imm = make_planner(sched::UploadPlanner::Policy::Immediate,
                                sched)
                       .plan(at_hours(8.25), job);
  EXPECT_LT(d.radio_energy, imm.radio_energy);
}

TEST(UploadPlanner, TightSlackForcesImmediateUpload) {
  const auto sched = net::MobilitySchedule::commuter_day();
  const auto planner =
      make_planner(sched::UploadPlanner::Policy::WaitForFree, sched);
  // 10 minutes of slack at 08:15: WiFi at 09:00 is unreachable.
  const sched::UploadJob job{"urgentish", DataSize::megabytes(20),
                             Duration::minutes(10)};
  const auto d = planner.plan(at_hours(8.25), job);
  EXPECT_EQ(d.start, at_hours(8.25));
  EXPECT_EQ(d.tech, "4G");
  EXPECT_GT(d.data_cost, Money::zero());
  EXPECT_TRUE(d.meets_deadline);
}

TEST(UploadPlanner, AlreadyOnWifiStartsNow) {
  const auto sched = net::MobilitySchedule::commuter_day();
  const auto planner =
      make_planner(sched::UploadPlanner::Policy::WaitForFree, sched);
  const sched::UploadJob job{"j", DataSize::megabytes(100),
                             Duration::hours(2)};
  const auto d = planner.plan(at_hours(12), job);
  EXPECT_EQ(d.start, at_hours(12));
  EXPECT_TRUE(d.data_cost.is_zero());
}

TEST(UploadPlanner, ImpossibleDeadlineReportedHonestly) {
  const auto sched = net::MobilitySchedule::commuter_day();
  const auto planner =
      make_planner(sched::UploadPlanner::Policy::WaitForFree, sched);
  // 4 GB with one second of slack cannot make it on any link.
  const sched::UploadJob job{"hopeless", DataSize::gigabytes(4),
                             Duration::seconds(1)};
  const auto d = planner.plan(at_hours(12), job);
  EXPECT_FALSE(d.meets_deadline);
}

}  // namespace
}  // namespace ntco
