#pragma once

#include <algorithm>
#include <cstdint>

#include "ntco/common/contracts.hpp"
#include "ntco/common/units.hpp"

/// \file start_scan.hpp
/// The start-time search shared by DeferredScheduler (tariff multipliers)
/// and CarbonAwarePlanner (grid carbon intensity): both price a start by
/// an hourly curve that repeats daily, and pick the earliest cheapest
/// start on a grid of candidates within the job's slack.

namespace ntco::sched {

/// Latest start at which `est_duration` of work still ends by the deadline
/// `release + slack`, never before `release` (a tight job starts at once).
/// Saturates at the end of TimePoint's range instead of overflowing, so
/// any slack, Duration::max() included, is safe. Pre: slack >= 0.
[[nodiscard]] inline TimePoint latest_admissible_start(TimePoint release,
                                                       Duration slack,
                                                       Duration est_duration) {
  NTCO_EXPECTS(!slack.is_negative());
  if (est_duration >= slack) return release;
  constexpr std::int64_t kEnd = Duration::max().count_micros();
  const std::int64_t s = slack.count_micros();
  const std::int64_t e = est_duration.count_micros();
  // slack - est_duration > 0, saturated when a negative estimate would
  // carry it past the range.
  const std::int64_t room = (e < 0 && s > kEnd + e) ? kEnd : s - e;
  if (release.since_origin().count_micros() > kEnd - room)
    return TimePoint::at(Duration::max());
  return release + Duration::micros(room);
}

/// A start and the curve's value there.
struct CheapestStart {
  TimePoint start;
  double value = 0.0;
};

/// The earliest start on the grid release + k * `step` (k >= 0, up to
/// `latest`) where `value(t)` is lowest; values within 1e-12 count as
/// equal. `value` must be constant within each hour and repeat daily.
///
/// Only the first grid point of each hour can beat the best so far, and
/// once a day of hours has been probed every later value has been seen
/// and cannot beat it either. So the scan probes one grid point per hour,
/// for at most a day after release, and picks the same start as probing
/// every grid point up to `latest`, whatever the slack.
/// Pre: origin <= release <= latest, 0 < step <= 1 h.
template <class Value>
[[nodiscard]] CheapestStart cheapest_hourly_start(TimePoint release,
                                                  TimePoint latest,
                                                  Duration step,
                                                  Value&& value) {
  constexpr std::int64_t kHour = Duration::hours(1).count_micros();
  NTCO_EXPECTS(step > Duration::zero() && step <= Duration::hours(1));
  NTCO_EXPECTS(release >= TimePoint::origin() && latest >= release);
  const std::int64_t grid = step.count_micros();
  const std::int64_t origin_us = release.since_origin().count_micros();
  // Offsets from release still to scan: up to `latest`, within a day.
  const std::int64_t horizon =
      std::min((latest - release).count_micros(), 24 * kHour - 1);
  CheapestStart best{release, value(release)};
  for (std::int64_t offset = 0;;) {
    // On to the first grid point at or past the next hour boundary.
    const std::int64_t to_next_hour = kHour - (origin_us + offset) % kHour;
    offset += (to_next_hour + grid - 1) / grid * grid;
    if (offset > horizon) break;
    const TimePoint t = release + Duration::micros(offset);
    const double v = value(t);
    if (v < best.value - 1e-12) best = CheapestStart{t, v};
  }
  return best;
}

}  // namespace ntco::sched
