#pragma once

#include <vector>

#include "ntco/common/error.hpp"
#include "ntco/common/units.hpp"

/// \file price_window.hpp
/// Time-of-day pricing, shared by every layer that reasons about tariffs.
///
/// The serverless platform bills with these windows; the continuum
/// federation *estimates* with them when deciding where a job should run.
/// Both consume this one header so placement cost estimates cannot drift
/// from what the platform actually charges (the drift used to be possible
/// when serverless::PlatformConfig declared its own copy of the type).

namespace ntco {

/// Time-of-day pricing window: [start_hour, end_hour) in simulated hours
/// since origin, repeating daily. Wrapping windows (22 -> 6) are allowed.
struct PriceWindow {
  int start_hour = 0;
  int end_hour = 0;
  double multiplier = 1.0;
};

/// True when `hour` falls inside `w` (wrapping windows included).
[[nodiscard]] inline bool window_contains(const PriceWindow& w, int hour) {
  return (w.start_hour <= w.end_hour)
             ? (hour >= w.start_hour && hour < w.end_hour)
             : (hour >= w.start_hour || hour < w.end_hour);
}

/// Multiplier of the first window containing `when`'s hour; 1.0 outside
/// every window. First-match semantics are part of the billing contract
/// (serverless::Platform::price_multiplier delegates here).
[[nodiscard]] inline double price_multiplier_at(
    const std::vector<PriceWindow>& windows, TimePoint when) {
  const int h = hour_of_day(when);
  for (const auto& w : windows)
    if (window_contains(w, h)) return w.multiplier;
  return 1.0;
}

/// Throws ConfigError on an out-of-range hour or non-positive multiplier.
inline void validate_price_windows(const std::vector<PriceWindow>& windows) {
  for (const auto& w : windows) {
    if (w.start_hour < 0 || w.start_hour > 23 || w.end_hour < 0 ||
        w.end_hour > 24 || w.multiplier <= 0.0)
      throw ConfigError("malformed price window");
  }
}

}  // namespace ntco
