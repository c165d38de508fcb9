#pragma once

#include <vector>

#include "ntco/common/units.hpp"
#include "ntco/serverless/platform.hpp"

/// \file memory_optimizer.hpp
/// Serverless memory-size allocation (the abstract's second contribution
/// and claimed originality).
///
/// A FaaS function's memory setting buys CPU share, so it controls both
/// duration and price: doubling memory halves duration (until the vCPU cap)
/// while the GB-second price doubles — making cost roughly flat on the
/// scaling region, dominated by the billing quantum at the small end and by
/// wasted share beyond the cap at the large end. sweep() evaluates every
/// deployable configuration and returns the full curve for reporting
/// (Table T3). choose() returns the cost-minimal configuration subject to
/// an optional duration ceiling with the same answer as a pass over that
/// curve, but prices only a few points: duration never grows with memory,
/// so the configurations that meet the deadline are a suffix it finds by
/// binary search; and memory / speed factor never falls (constant below
/// one vCPU, affine above it, growing past the vCPU cap), so a lower bound
/// on cost at one size bounds every larger size, and the scan up the
/// suffix stops at the first size whose bound exceeds the best cost.

namespace ntco::alloc {

/// One evaluated memory configuration.
struct MemoryPoint {
  DataSize memory;
  Duration duration;  ///< predicted execution time of the work
  Money cost;         ///< predicted per-invocation cost
};

/// Optimiser outcome.
struct MemoryChoice {
  MemoryPoint chosen;
  bool feasible = true;  ///< false if no configuration met the deadline
};

/// Enumerates deployable memory sizes for a given work demand and picks the
/// cheapest that satisfies the constraints.
class MemoryOptimizer {
 public:
  /// `platform` supplies the provider's timing and pricing math. The
  /// optimiser never mutates it.
  explicit MemoryOptimizer(const serverless::Platform& platform)
      : platform_(platform) {}

  /// Full duration/cost curve over deployable sizes (for reporting).
  /// `floor` is the function's working-set requirement: configurations
  /// below it are excluded. `parallel_fraction` is the function's Amdahl
  /// fraction (it shapes the whole curve above one vCPU). `step` controls
  /// sweep granularity (must be a multiple of the provider quantum).
  [[nodiscard]] std::vector<MemoryPoint> sweep(
      Cycles work, DataSize floor, double parallel_fraction = 1.0,
      DataSize step = DataSize::megabytes(128)) const;

  /// Cheapest configuration with duration <= `deadline` (Duration::max()
  /// for unconstrained). Ties broken toward the faster (larger-memory)
  /// configuration. If nothing meets the deadline, returns the fastest
  /// configuration with feasible == false. Picks what a pass over sweep()'s
  /// curve would, from a binary search for the deadline and a scan that
  /// stops where no larger size can win (see the file comment); builds no
  /// curve and allocates nothing.
  [[nodiscard]] MemoryChoice choose(
      Cycles work, DataSize floor, double parallel_fraction = 1.0,
      Duration deadline = Duration::max(),
      DataSize step = DataSize::megabytes(128)) const;

 private:
  const serverless::Platform& platform_;
};

}  // namespace ntco::alloc
