#include "ntco/alloc/memory_optimizer.hpp"

#include "ntco/common/error.hpp"

namespace ntco::alloc {

namespace {

/// Calls `visit` with each deployable configuration from `floor` up, in
/// ascending memory order.
template <class Visit>
void for_each_point(const serverless::Platform& platform, Cycles work,
                    DataSize floor, double parallel_fraction, DataSize step,
                    Visit&& visit) {
  const auto& cfg = platform.config();
  if (step.is_zero() ||
      step.count_bytes() % cfg.memory_quantum.count_bytes() != 0)
    throw ConfigError("sweep step must be a positive provider-quantum multiple");

  const DataSize start = platform.quantize_memory(floor);
  for (auto bytes = start.count_bytes(); bytes <= cfg.max_memory.count_bytes();
       bytes += step.count_bytes()) {
    const auto mem = DataSize::bytes(bytes);
    const Duration d = platform.exec_time(mem, work, parallel_fraction);
    // Price at the reference (multiplier-free) tariff; scheduling into a
    // discount window is the scheduler's job, not the allocator's.
    const Money c = platform.invocation_cost(mem, d, TimePoint::origin());
    visit(MemoryPoint{mem, d, c});
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
  // One pass over the curve sweep() would build, keeping the fastest point
  // and the cheapest one within the deadline.
  MemoryPoint best;
  MemoryPoint fastest;
  bool any = false;
  bool found = false;
  for_each_point(platform_, work, floor, parallel_fraction, step,
                 [&](const MemoryPoint& p) {
                   if (!any || p.duration < fastest.duration) fastest = p;
                   any = true;
                   if (p.duration > deadline) return;
                   if (!found || p.cost < best.cost ||
                       (p.cost == best.cost && p.duration < best.duration))
                     best = p;
                   found = true;
                 });
  NTCO_ENSURES(any);
  if (!found) return MemoryChoice{fastest, false};
  return MemoryChoice{best, true};
}

}  // namespace ntco::alloc
