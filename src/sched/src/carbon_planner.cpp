#include "ntco/sched/carbon_planner.hpp"

#include "ntco/common/contracts.hpp"
#include "ntco/common/error.hpp"
#include "ntco/sched/start_scan.hpp"

namespace ntco::sched {

CarbonProfile::CarbonProfile(std::array<double, 24> gco2_per_kwh)
    : curve_(gco2_per_kwh) {
  for (const double v : curve_)
    if (v < 0.0) throw ConfigError("carbon intensity must be non-negative");
}

double CarbonProfile::at(TimePoint t) const {
  NTCO_EXPECTS(t >= TimePoint::origin());
  return curve_[static_cast<std::size_t>(hour_of_day(t))];
}

CarbonProfile CarbonProfile::solar_grid() {
  return CarbonProfile({480, 470, 460, 455, 450, 440, 400, 340,  // 00-07
                        280, 220, 180, 160, 160, 170, 200, 260,  // 08-15
                        340, 430, 500, 520, 510, 500, 490, 485});  // 16-23
}

CarbonProfile CarbonProfile::flat(double gco2_per_kwh) {
  std::array<double, 24> c{};
  c.fill(gco2_per_kwh);
  return CarbonProfile(c);
}

TimePoint CarbonAwarePlanner::plan_start(TimePoint release, Duration slack,
                                         Duration est_duration) const {
  return cheapest_hourly_start(
             release, latest_admissible_start(release, slack, est_duration),
             kSearchStep, [this](TimePoint t) { return profile_.at(t); })
      .start;
}

}  // namespace ntco::sched
