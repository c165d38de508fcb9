#include "ntco/alloc/warm_pool.hpp"

#include "ntco/stats/queueing.hpp"

namespace ntco::alloc {

WarmPoolPlan WarmPoolPlanner::plan(const Inputs& in) {
  NTCO_EXPECTS(in.arrivals_per_second >= 0.0);
  NTCO_EXPECTS(!in.service_time.is_negative());
  NTCO_EXPECTS(in.target_cold_rate > 0.0 && in.target_cold_rate <= 1.0);

  const double offered = in.arrivals_per_second * in.service_time.to_seconds();
  const double gb = static_cast<double>(in.memory.count_bytes()) / 1e9;

  if (offered == 0.0) {
    // No traffic: nothing to keep warm, nothing can go cold.
    return WarmPoolPlan{0, 0.0, Money::zero()};
  }

  std::size_t n = 0;
  double rate = stats::erlang_b(0, offered);
  while (rate > in.target_cold_rate && n < in.max_instances) {
    ++n;
    rate = stats::erlang_b(n, offered);
  }

  WarmPoolPlan plan;
  plan.instances = n;
  plan.predicted_cold_rate = rate;
  plan.standing_cost_per_hour = in.provisioned_price_per_gb_second *
                                (gb * static_cast<double>(n) * 3600.0);
  return plan;
}

}  // namespace ntco::alloc
