#pragma once

#include <array>
#include <optional>

#include "ntco/common/units.hpp"

/// \file carbon_planner.hpp
/// Carbon-aware deferral: shifting delay-tolerant jobs into low-carbon
/// hours.
///
/// Grid carbon intensity swings by a factor of 2-4 over a day (solar
/// mid-day trough, evening fossil peak). A job with slack can run when the
/// grid is clean — the sustainability twin of the off-peak tariff argument
/// (bench F11). Intensity is modelled as a repeating 24-hour curve.

namespace ntco::sched {

/// Repeating 24-hour carbon intensity curve, gCO2 per kWh per hour slot.
class CarbonProfile {
 public:
  explicit CarbonProfile(std::array<double, 24> gco2_per_kwh);

  /// Intensity at simulated time `t` (hour-of-day resolution).
  [[nodiscard]] double at(TimePoint t) const;

  /// Solar-grid preset: ~480 overnight/evening, trough of ~160 around
  /// midday, evening ramp peak ~520.
  [[nodiscard]] static CarbonProfile solar_grid();

  /// Flat grid (no variation) at the given intensity.
  [[nodiscard]] static CarbonProfile flat(double gco2_per_kwh);

 private:
  std::array<double, 24> curve_;
};

/// Plans job start times minimising carbon within the slack window.
class CarbonAwarePlanner {
 public:
  /// Scan granularity over the admissible window.
  static constexpr Duration kSearchStep = Duration::minutes(30);
  static_assert(kSearchStep > Duration::zero() &&
                kSearchStep <= Duration::hours(1));

  explicit CarbonAwarePlanner(CarbonProfile profile)
      : profile_(std::move(profile)) {}

  /// Earliest start on the kSearchStep grid in
  /// [release, release + slack - est_duration] with the minimum intensity
  /// (clamped to `release` if the slack is tight). Probes at most one
  /// grid point per hour of the first day, however large the slack,
  /// Duration::max() included. Pre: release >= origin, slack >= 0.
  [[nodiscard]] TimePoint plan_start(TimePoint release, Duration slack,
                                     Duration est_duration) const;

  /// gCO2 of running `energy_kwh` starting at `start` (intensity sampled
  /// at the start; jobs are short relative to hourly resolution).
  [[nodiscard]] double emissions(TimePoint start, double energy_kwh) const {
    return profile_.at(start) * energy_kwh;
  }

  [[nodiscard]] const CarbonProfile& profile() const { return profile_; }

 private:
  CarbonProfile profile_;
};

}  // namespace ntco::sched
