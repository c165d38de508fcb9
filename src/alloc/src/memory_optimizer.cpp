#include "ntco/alloc/memory_optimizer.hpp"

#include <cstddef>
#include <cstdint>

#include "ntco/common/error.hpp"

namespace ntco::alloc {

namespace {

/// Relative slack taken off the cost lower bound so that floating-point
/// rounding in it (a few ulps, ~1e-15) can only lower it.
constexpr double kBoundMargin = 1e-9;

void check_step(const serverless::Platform& platform, DataSize step) {
  if (step.is_zero() ||
      step.count_bytes() % platform.config().memory_quantum.count_bytes() != 0)
    throw ConfigError("sweep step must be a positive provider-quantum multiple");
}

/// One deployable configuration at speed factor `f`, priced.
MemoryPoint evaluate(const serverless::Platform& platform, DataSize memory,
                     double f, Cycles work) {
  const Duration d = platform.exec_time_at(f, work);
  // Price at the reference (multiplier-free) tariff; scheduling into a
  // discount window is the scheduler's job, not the allocator's.
  return MemoryPoint{memory, d,
                     platform.invocation_cost(memory, d, TimePoint::origin())};
}

/// Calls `visit` with each deployable configuration from `floor` up, in
/// ascending memory order.
template <class Visit>
void for_each_point(const serverless::Platform& platform, Cycles work,
                    DataSize floor, double parallel_fraction, DataSize step,
                    Visit&& visit) {
  check_step(platform, step);
  const DataSize start = platform.quantize_memory(floor);
  for (auto bytes = start.count_bytes();
       bytes <= platform.config().max_memory.count_bytes();
       bytes += step.count_bytes()) {
    const auto m = DataSize::bytes(bytes);
    visit(evaluate(platform, m, platform.speed_factor(m, parallel_fraction),
                   work));
  }
}

}  // namespace

std::vector<MemoryPoint> MemoryOptimizer::sweep(Cycles work, DataSize floor,
                                                double parallel_fraction,
                                                DataSize step) const {
  std::vector<MemoryPoint> out;
  for_each_point(platform_, work, floor, parallel_fraction, step,
                 [&out](const MemoryPoint& p) { out.push_back(p); });
  NTCO_ENSURES(!out.empty());
  return out;
}

MemoryChoice MemoryOptimizer::choose(Cycles work, DataSize floor,
                                     double parallel_fraction,
                                     Duration deadline, DataSize step) const {
  check_step(platform_, step);
  const auto& cfg = platform_.config();
  const std::uint64_t first = platform_.quantize_memory(floor).count_bytes();
  const std::uint64_t stride = step.count_bytes();
  const std::size_t n = (cfg.max_memory.count_bytes() - first) / stride + 1;
  const auto memory = [&](std::size_t i) {
    return DataSize::bytes(first + i * stride);
  };
  const auto meets_deadline = [&](std::size_t i) {
    return platform_.exec_time(memory(i), work, parallel_fraction) <= deadline;
  };

  // Duration never grows with memory (Platform::speed_factor never falls,
  // and the rounding to Hz and µs is monotone), so the points that meet the
  // deadline form a suffix: find where it starts. Probing the smallest
  // point first keeps an unconstrained call at one probe.
  std::size_t lo = 0;
  if (!meets_deadline(0)) {
    lo = 1;
    std::size_t hi = n;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (meets_deadline(mid))
        hi = mid;
      else
        lo = mid + 1;
    }
  }
  if (lo == n) {
    // Nothing meets the deadline: the fastest configuration, first among
    // equals.
    MemoryPoint fastest;
    bool any = false;
    for_each_point(platform_, work, floor, parallel_fraction, step,
                   [&](const MemoryPoint& p) {
                     if (!any || p.duration < fastest.duration) fastest = p;
                     any = true;
                   });
    NTCO_ENSURES(any);
    return MemoryChoice{fastest, false};
  }

  // Scan the feasible suffix upward, keeping the cheapest point (ties to
  // the faster one), and stop at the first point whose cost lower bound
  // exceeds the best cost: the bound holds for every larger point too, so
  // none of them can beat or tie the best.
  //
  // The bound. The platform bills fee + llround(P * mult * (m/1e9) * t),
  // t the duration rounded up to µs and then to the billing quantum, and
  // t >= W / llround(c * f(m)) >= W / (c * f(m) + 1/2) seconds, for work W
  // cycles, core speed c Hz and f = speed_factor. So
  //   cost - fee >= P * mult * (m/1e9) * W / (c * f(m) + 1/2) - 1/2.
  // m / f(m) never falls (it is the full-share memory below one vCPU,
  // (1-p)*m + p*full above it, and grows with m past the vCPU cap), so
  // m / (c * f(m) + 1/2) never falls either: the bound at m bounds every
  // larger point. The prices are non-negative (the platform refuses
  // others), and kBoundMargin covers the rounding of both computations.
  const double scale =
      static_cast<double>(cfg.price_per_gb_second.count_nano_usd()) *
      platform_.price_multiplier(TimePoint::origin()) *
      static_cast<double>(work.value()) / 1e9 * (1.0 - kBoundMargin);
  const double hz = static_cast<double>(cfg.core_speed.count_hertz());
  MemoryPoint best = evaluate(
      platform_, memory(lo),
      platform_.speed_factor(memory(lo), parallel_fraction), work);
  for (std::size_t i = lo + 1; i < n; ++i) {
    const DataSize m = memory(i);
    const double f = platform_.speed_factor(m, parallel_fraction);
    const double bound =
        scale * static_cast<double>(m.count_bytes()) / (hz * f + 0.5);
    const double best_charge = static_cast<double>(
        (best.cost - cfg.price_per_request).count_nano_usd());
    if (bound > best_charge + 0.5) break;  // m and up all cost more
    const MemoryPoint p = evaluate(platform_, m, f, work);
    if (p.cost < best.cost ||
        (p.cost == best.cost && p.duration < best.duration))
      best = p;
  }
  return MemoryChoice{best, true};
}

}  // namespace ntco::alloc
