#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "ntco/common/units.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"

/// \file plan_cache.hpp
/// Deterministic LRU+TTL cache of DeploymentPlans keyed by a quantized
/// serving context.
///
/// Population-scale serving recomputes the profile→partition→allocate
/// decision once per *decision context*, not once per user: two phones on
/// the same workload, in the same bandwidth/RTT regime, at a similar
/// battery level and inside the same tariff window get the same plan, so
/// the broker shares it. The raw context is quantized into coarse buckets
/// (log2 bandwidth, log2 RTT, battery quarters, price window) and the
/// cached plan is reused until
///   - the entry ages past its TTL at *simulated* time (staleness bound),
///   - capacity pressure evicts it (least-recently-used first), or
///   - the live context drifts past the hysteresis threshold.
/// Hysteresis is what keeps a user oscillating around a bucket boundary
/// from replanning on every request: a lookup that misses its exact bucket
/// still reuses an adjacent bucket's plan while the *raw* drift from that
/// plan's planning context stays within the drift envelope (relative
/// bandwidth / RTT drift within `hysteresis`, absolute battery drift
/// within `battery_hysteresis`). Only genuine regime changes replan.
///
/// Determinism: entries live in a std::map (sorted key order), LRU state is
/// a monotonic use tick, and all inputs are simulated quantities — cache
/// behaviour is a pure function of the request sequence, so fleet shards
/// each owning a private cache reproduce byte-identically at any
/// NTCO_THREADS (see tests/broker_test.cpp).

namespace ntco::broker {

/// Raw serving context one decision is made under.
struct DecisionContext {
  std::string workload;  ///< task-graph identity (must imply graph shape)
  DataRate uplink;       ///< current uplink estimate
  Duration rtt;          ///< current round-trip latency estimate
  double battery = 1.0;  ///< UE state of charge in [0, 1]
  int hour = 0;          ///< simulated hour of day (tariff proxy), [0, 24)
};

/// Quantized cache key; ordering is lexicographic over all fields.
struct PlanKey {
  std::string workload;
  int bw_bucket = 0;       ///< round(log2(uplink Mbps))
  int rtt_bucket = 0;      ///< round(log2(RTT ms))
  int battery_bucket = 0;  ///< floor(battery * battery_buckets), clamped
  int window = 0;          ///< hour / hours_per_window

  auto operator<=>(const PlanKey&) const = default;
};

struct PlanCacheConfig {
  std::size_t capacity = 256;          ///< entries; LRU eviction beyond
  Duration ttl = Duration::hours(1);   ///< staleness bound at simulated time
  /// Relative bandwidth / RTT drift tolerated before a neighbouring-bucket
  /// plan stops being reusable.
  double hysteresis = 0.25;
  /// Absolute battery drift (state-of-charge points, battery is in [0, 1])
  /// tolerated before a neighbouring-bucket plan stops being reusable.
  /// Deliberately a separate knob from `hysteresis`: a 5% bandwidth drift
  /// and a 5-percentage-point battery drift are different physical
  /// quantities, and a single knob silently conflated them.
  double battery_hysteresis = 0.25;
  int battery_buckets = 4;
  /// Price-window width. Contract: must divide 24 evenly, otherwise the
  /// final window of the day would be ragged (e.g. 5 h windows leave
  /// window 4 spanning only 4 h) and skew hit rates across midnight.
  int hours_per_window = 6;
};

/// Hit/miss accounting (also mirrored into obs instruments when attached).
struct PlanCacheStats {
  std::uint64_t hits = 0;             ///< exact-bucket hits
  std::uint64_t hysteresis_hits = 0;  ///< adjacent-bucket hits within drift
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< capacity evictions (LRU)
  std::uint64_t expiries = 0;   ///< TTL expiries observed by lookups

  [[nodiscard]] double hit_rate() const {
    const std::uint64_t total = hits + hysteresis_hits + misses;
    return total == 0 ? 0.0
                      : static_cast<double>(hits + hysteresis_hits) /
                            static_cast<double>(total);
  }
};

/// Quantizes a raw context under a config's bucket geometry.
[[nodiscard]] PlanKey quantize(const DecisionContext& ctx,
                               const PlanCacheConfig& cfg);

/// A cached plan. Plans are immutable once published, so a hit shares the
/// row's plan instead of copying it, and an in-flight execution keeps its
/// plan alive even after the row is evicted or overwritten.
using SharedPlan = std::shared_ptr<const core::DeploymentPlan>;

/// Deterministic LRU+TTL plan cache.
class PlanCache {
 public:
  explicit PlanCache(PlanCacheConfig cfg);

  /// Looks up a reusable plan for `ctx` at simulated time `now`. Counts a
  /// hit (exact bucket), a hysteresis hit (adjacent bucket within drift),
  /// or a miss (null); expired entries are erased and counted on the way.
  [[nodiscard]] SharedPlan lookup(const DecisionContext& ctx, TimePoint now);

  /// Caches `plan` under ctx's exact bucket (overwriting any previous
  /// occupant), evicting the least-recently-used entry beyond capacity.
  void insert(const DecisionContext& ctx, SharedPlan plan, TimePoint now);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const PlanCacheStats& stats() const { return stats_; }
  [[nodiscard]] const PlanCacheConfig& config() const { return cfg_; }

  /// Attaches observability. `trace` receives "broker.plan_cache_hit" /
  /// "broker.plan_cache_miss" events; `metrics` hosts the
  /// "broker.cache.*" counters. Either may be null.
  void attach_observer(obs::TraceSink* trace, obs::MetricsRegistry* metrics);

 private:
  struct Entry {
    SharedPlan plan;
    DecisionContext planned;  ///< raw context the plan was computed for
    TimePoint inserted;
    std::uint64_t last_used = 0;
  };

  /// True when `ctx` is within the hysteresis envelope of `planned`.
  [[nodiscard]] bool within_hysteresis(const DecisionContext& ctx,
                                       const DecisionContext& planned) const;
  void evict_lru();
  [[nodiscard]] bool expired(const Entry& e, TimePoint now) const;

  struct Instruments {
    obs::Counter* hits = nullptr;
    obs::Counter* hysteresis_hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Counter* evictions = nullptr;
    obs::Counter* expiries = nullptr;
  };

  PlanCacheConfig cfg_;
  // std::map: deterministic iteration for eviction scans.
  std::map<PlanKey, Entry> entries_;
  std::uint64_t tick_ = 0;
  PlanCacheStats stats_;
  obs::TraceSink* trace_ = nullptr;
  Instruments m_;
};

}  // namespace ntco::broker
