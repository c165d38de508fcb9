#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "ntco/broker/workload_ids.hpp"
#include "ntco/common/contracts.hpp"
#include "ntco/common/units.hpp"
#include "ntco/core/controller.hpp"
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
/// bandwidth / RTT drift within `kCacheHysteresis`, absolute battery drift
/// within `kBatteryHysteresis`). Only genuine regime changes replan.
///
/// The key is all integers (the workload is an interned id, see
/// workload_ids.hpp), so a hit copies no string and compares none.
///
/// Determinism: entries live in a std::map (sorted key order), LRU state is
/// a monotonic use tick, and all inputs are simulated quantities — cache
/// behaviour is a pure function of the request sequence, so fleet shards
/// each owning a private cache reproduce byte-identically at any
/// NTCO_THREADS (see tests/broker_test.cpp).

namespace ntco::broker {

/// Cache entries; the least recently used is evicted beyond this.
inline constexpr std::size_t kCacheCapacity = 256;
/// Relative bandwidth / RTT drift tolerated before a neighbouring-bucket
/// plan stops being reusable.
inline constexpr double kCacheHysteresis = 0.25;
/// Absolute battery drift (state-of-charge points, battery is in [0, 1])
/// tolerated before a neighbouring-bucket plan stops being reusable. A
/// separate constant from `kCacheHysteresis`: a 5% bandwidth drift and a
/// 5-percentage-point battery drift are different physical quantities.
inline constexpr double kBatteryHysteresis = 0.25;
/// Battery buckets of the cache key.
inline constexpr int kBatteryBuckets = 4;
/// Price-window width. It divides 24, so the final window of the day is
/// not ragged (5 h windows would leave window 4 spanning only 4 h and skew
/// hit rates across midnight).
inline constexpr int kHoursPerWindow = 6;
static_assert(kCacheCapacity > 0);
static_assert(kCacheHysteresis >= 0.0 && kBatteryHysteresis >= 0.0);
static_assert(kBatteryBuckets > 0);
static_assert(kHoursPerWindow > 0 && 24 % kHoursPerWindow == 0,
              "price windows must tile the day");

/// Raw serving context one decision is made under.
struct DecisionContext {
  /// Interned task-graph name, the graph's identity (the name must imply
  /// the graph's shape).
  WorkloadId workload = 0;
  DataRate uplink;       ///< current uplink estimate
  Duration rtt;          ///< current round-trip latency estimate
  double battery = 1.0;  ///< UE state of charge in [0, 1]
  int hour = 0;          ///< simulated hour of day (tariff proxy), [0, 24)
};

/// Quantized cache key; ordering is lexicographic over all fields.
struct PlanKey {
  WorkloadId workload = 0;
  int bw_bucket = 0;       ///< round(log2(uplink Mbps))
  int rtt_bucket = 0;      ///< round(log2(RTT ms))
  int battery_bucket = 0;  ///< floor(battery * kBatteryBuckets), clamped
  int window = 0;          ///< hour / kHoursPerWindow

  auto operator<=>(const PlanKey&) const = default;
};

struct PlanCacheConfig {
  Duration ttl = Duration::hours(1);   ///< staleness bound at simulated time
};

/// Hit/miss accounting (Broker::publish() turns it into "broker.cache.*").
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

/// Quantizes a raw context into its cache key.
[[nodiscard]] PlanKey quantize(const DecisionContext& ctx);

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

  /// `trace` (may be null) receives "broker.plan_cache_hit" /
  /// "broker.plan_cache_miss" events, which print the workload's name from
  /// `names` (required with a trace; must outlive the cache).
  void set_trace(obs::TraceSink* trace, const WorkloadIds* names) {
    NTCO_EXPECTS(trace == nullptr || names != nullptr);
    trace_ = trace;
    names_ = names;
  }

 private:
  /// One cached plan, with the raw figures of the context it was computed
  /// for that the hysteresis test reads.
  struct Entry {
    SharedPlan plan;
    DataRate uplink;
    Duration rtt;
    double battery = 1.0;
    TimePoint inserted;
    std::uint64_t last_used = 0;
  };

  /// True when `ctx` is within the hysteresis envelope of the context `e`
  /// was planned for.
  [[nodiscard]] static bool within_hysteresis(const DecisionContext& ctx,
                                              const Entry& e);
  void evict_lru();
  [[nodiscard]] bool expired(const Entry& e, TimePoint now) const;

  PlanCacheConfig cfg_;
  // std::map: deterministic iteration for eviction scans.
  std::map<PlanKey, Entry> entries_;
  std::uint64_t tick_ = 0;
  PlanCacheStats stats_;
  obs::TraceSink* trace_ = nullptr;
  const WorkloadIds* names_ = nullptr;
};

}  // namespace ntco::broker
