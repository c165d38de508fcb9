#pragma once

// One timed round (a full reduce over a workload's shards) and the
// per-layer metrics a traced round yields.

#include <cstdint>
#include <string>
#include <vector>

#include "ntco/dataplane/engine.hpp"
#include "probes.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Everything one reduce over the shards produced, merged in shard order.
struct Round {
  double wall_s = 0.0;  ///< host wall time of the reduce
  double cpu_s = 0.0;   ///< process user+sys CPU over the reduce
  std::size_t shards = 0;
  std::size_t workers = 0;
  std::size_t failed_shards = 0;
  std::string first_error;
  // The reference slices run after the shards (see reference.hpp), summed
  // over the round. wall_s and cpu_s leave them out: cpu_s their CPU time,
  // wall_s their wall time over the workers.
  double ref_wall_s = 0.0;
  double ref_cpu_s = 0.0;
  bool ref_ok = true;
  ShardResult total;  ///< counters summed, samples pooled (no spans)
  std::uint64_t digest = kFnvBasis;  ///< fold of shard digests, shard order
  ntco::dataplane::EngineRunStats dataplane;
  // Traced rounds only.
  std::vector<std::vector<Span>> shard_spans;
  std::vector<std::vector<std::uint8_t>> serve_class;
  std::vector<Span> merge_spans;
};

/// Folds one shard's result into the round (called in shard order).
void absorb(Round& r, ShardResult&& s);

struct Metric {
  std::string name;
  double value = 0.0;
  const char* unit = "";
};

/// Per-layer metrics of a traced round, in the order BENCHMARK.json lists
/// them (app.* and trace.overhead are left to the caller). `extras`
/// receives figures printed for people but not gated (heuristic planner
/// time, planning share of shard time, shed share, self times). Appends to
/// `error` when a span invariant fails: an unclosed span, negative self
/// time, self times summing past the shard time, or span counts that
/// disagree with the decorators' call counts.
[[nodiscard]] std::vector<Metric> layer_metrics(const Round& r,
                                                std::vector<Metric>& extras,
                                                std::string& error);

/// Writes a traced round's spans as CSV (one row per span, times relative
/// to the round's first span). Returns false when the file cannot be
/// written.
bool write_spans(const std::string& path, const Round& r);

}  // namespace perfbench
