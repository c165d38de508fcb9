#pragma once

#include "ntco/app/task_graph.hpp"
#include "ntco/common/rng.hpp"

/// \file generators.hpp
/// Synthetic task-graph families for sweeps and property tests.
///
/// Published offloading evaluations run on a handful of real applications
/// plus parametric graph families; these generators provide the latter with
/// controllable size, shape, and compute-to-communication ratio.

namespace ntco::app {

/// Parameters shared by the random generators.
struct GeneratorParams {
  std::size_t components = 10;
  Cycles mean_work = Cycles::mega(200);     ///< per-component demand mean
  DataSize mean_flow = DataSize::kilobytes(200);  ///< per-flow payload mean
  double pin_fraction = 0.2;  ///< expected fraction of pinned components
};

/// Lognormal-ish dispersion of each generated component's demand and each
/// flow's payload around GeneratorParams' means.
inline constexpr double kGeneratedWorkCv = 0.5;
inline constexpr double kGeneratedFlowCv = 0.5;
/// Memory and code image of every generated component.
inline constexpr DataSize kGeneratedMemory = DataSize::megabytes(192);
inline constexpr DataSize kGeneratedImage = DataSize::megabytes(25);

/// A -> B -> C -> ... chain. First and last components are pinned (data
/// acquisition and result presentation stay on the UE).
[[nodiscard]] TaskGraph linear_pipeline(const GeneratorParams& p, Rng rng);

/// One pinned splitter fanning out to `width` parallel workers joined by a
/// pinned collector (map-reduce shape).
[[nodiscard]] TaskGraph fan_out_fan_in(std::size_t width,
                                       const GeneratorParams& p, Rng rng);

/// Layered random DAG: components spread over `layers` layers, edges only
/// between consecutive layers, each non-first-layer component has >= 1
/// predecessor. Sources are pinned.
[[nodiscard]] TaskGraph layered_random(std::size_t layers,
                                       const GeneratorParams& p, Rng rng);

}  // namespace ntco::app
