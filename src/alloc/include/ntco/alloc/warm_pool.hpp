#pragma once

#include <cstddef>

#include "ntco/common/units.hpp"

/// \file warm_pool.hpp
/// Provisioned-concurrency (warm pool) planning.
///
/// Cold starts are the serverless tax on tail latency. Keeping `n`
/// instances provisioned removes them for arrivals that find a provisioned
/// instance free — at a standing GB-second price. For Poisson arrivals of
/// rate `lambda` and service time `s`, the probability an arrival overflows
/// an n-instance pool is the Erlang-B blocking probability B(n, lambda*s)
/// (`stats::erlang_b`). The planner picks the smallest n with B(n, a) below
/// a target cold rate.
///
/// The analytic model ignores the keep-alive reuse of on-demand instances,
/// so it is an upper bound on the real cold rate; bench A2 quantifies the
/// gap against simulation.

namespace ntco::alloc {

/// Warm-pool sizing decision.
struct WarmPoolPlan {
  std::size_t instances = 0;
  double predicted_cold_rate = 1.0;  ///< Erlang-B bound at `instances`
  Money standing_cost_per_hour;      ///< provisioned capacity price
};

/// Sizes a provisioned-concurrency pool.
class WarmPoolPlanner {
 public:
  struct Inputs {
    double arrivals_per_second = 1.0;       ///< Poisson rate
    Duration service_time = Duration::millis(200);
    double target_cold_rate = 0.01;         ///< acceptable overflow share
    DataSize memory = DataSize::megabytes(512);
    Money provisioned_price_per_gb_second = Money::nano_usd(4'167);
    std::size_t max_instances = 1000;
  };

  /// Smallest pool meeting the target; if even `max_instances` misses it,
  /// returns max_instances with its (too-high) predicted rate.
  [[nodiscard]] static WarmPoolPlan plan(const Inputs& in);
};

}  // namespace ntco::alloc
