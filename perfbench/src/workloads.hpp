#pragma once

// The three serve-path workloads: how their inputs are generated from the
// seed (before any timing starts) and how one shard replays its inputs
// through the public ntco API:
//
//   app inputs -> fleet::Replicator -> broker::Broker::serve
//              -> sim::Simulator::run
//
// A shard body only receives its pre-generated inputs; it builds its own
// world (simulator, platform, controller, broker) and reports its ledger,
// its simulated outputs, a digest of those outputs, and — in a traced run —
// its spans.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ntco/app/task_graph.hpp"
#include "ntco/common/units.hpp"
#include "ntco/stats/percentile.hpp"
#include "probes.hpp"

namespace perfbench {

enum class WorkloadKind : std::uint8_t {
  DiurnalDay,
  ReplanBurst,
  VehicularChurn,
};

struct Workload {
  WorkloadKind kind = WorkloadKind::DiurnalDay;
  const char* name = "";
  std::size_t shards = 1;  ///< shards per timed round
  bool parallel = false;   ///< fleet workers: nproc-1 if set, else 1
};

/// Looks a workload up by its CLI name; null when unknown.
[[nodiscard]] const Workload* find_workload(std::string_view name);
[[nodiscard]] const std::vector<Workload>& all_workloads();

/// One offered request, fully drawn before the timed phase.
struct Request {
  ntco::TimePoint at;
  ntco::Duration slack;
  double battery = 1.0;
  double bw_scale = 1.0;
  std::uint32_t graph = 0;  ///< index into ShardInput::graphs
};

struct ShardInput {
  std::vector<ntco::app::TaskGraph> graphs;
  std::vector<Request> requests;  ///< in schedule order
};

/// Generates every shard's inputs from (seed, shard). `arrivals_s`
/// receives the host seconds spent in the app arrival generators alone.
[[nodiscard]] std::vector<ShardInput> make_inputs(const Workload& w,
                                                  std::uint64_t seed,
                                                  double& arrivals_s);

/// What one shard run reports back for the shard-ordered merge.
struct ShardResult {
  // Ledger (public stats after drain).
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_queue = 0;
  std::uint64_t admitted = 0;
  std::uint64_t deferrals = 0;
  // Cache, dispatch, two-stage.
  std::uint64_t cache_hits = 0;  ///< exact + hysteresis
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_expiries = 0;
  std::uint64_t batches = 0;
  std::uint64_t fast_serves = 0;
  std::uint64_t resolves = 0;
  // Decorator counts.
  std::uint64_t plan_calls = 0;
  std::uint64_t heuristic_calls = 0;
  std::uint64_t transport_calls = 0;
  // Platform and kernel.
  std::uint64_t invocations = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t sim_events = 0;
  // Simulated outputs.
  double cloud_usd = 0.0;
  ntco::stats::PercentileSample completion_s;  ///< finished - released
  std::uint64_t digest = 0;
  /// Empty when the shard ran and every check passed.
  std::string error;
  // Traced runs only.
  std::vector<Span> spans;
  /// Per request index: 0 = served straight from admission on a cache hit,
  /// 1 = served straight from admission on a miss, 2 = shed or deferred.
  std::vector<std::uint8_t> serve_class;
};

/// Replays one shard. A non-null `rec` turns on span recording (the traced
/// run); with null, no probe reads a clock. Never throws: a failure lands
/// in ShardResult::error.
[[nodiscard]] ShardResult run_shard(const Workload& w, const ShardInput& in,
                                    SpanRecorder* rec);

/// FNV-1a step over one 64-bit word.
[[nodiscard]] constexpr std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffU;
    h *= 0x100000001b3ULL;
  }
  return h;
}
inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

}  // namespace perfbench
