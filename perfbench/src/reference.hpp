#pragma once

// A fixed reference workload that gauges the speed of the core it runs on.
//
// On a shared host the speed a core delivers moves with what its
// co-tenants run, by tens of percent within seconds. Every round runs
// one short reference slice right after every shard, on the same fleet
// worker, so the shards and the slices see the same contention. Dividing a
// round's time by its slices' time cancels the host's speed. A slice on
// another core, or one between rounds, tracks it far worse.
//
// The reference uses no ntco code, so a change to the library never moves
// it. It mimics the serve path's mix: a binary-heap event queue, hash-map
// lookups and inserts, small heap allocations, and a little floating-point
// math.

#include <cstdint>

namespace perfbench {

/// Wall seconds of one slice on the host the benchmark was tuned on (a
/// 4-vCPU Xeon VM) when it ran at full speed. A normalised time is a
/// measured time * kReferenceSliceSeconds / the measured slice time.
inline constexpr double kReferenceSliceSeconds = 0.002;

struct ReferenceTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of the calling thread
  bool ok = true;      ///< the slice's checksum matched the first slice's
};

/// Runs one reference slice on the calling thread and times it.
[[nodiscard]] ReferenceTime time_reference_slice();

}  // namespace perfbench
