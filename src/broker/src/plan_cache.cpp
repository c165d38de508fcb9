#include "ntco/broker/plan_cache.hpp"

#include <algorithm>
#include <cmath>

#include "ntco/common/contracts.hpp"

namespace ntco::broker {

namespace {

/// Signed log2 bucket of a strictly positive quantity; values at or below
/// zero collapse into the lowest bucket rather than producing -inf.
int log2_bucket(double v) {
  if (v <= 1e-9) return -64;
  return static_cast<int>(std::llround(std::log2(v)));
}

}  // namespace

PlanKey quantize(const DecisionContext& ctx) {
  PlanKey key;
  key.workload = ctx.workload;
  key.bw_bucket = log2_bucket(ctx.uplink.to_mbps());
  key.rtt_bucket = log2_bucket(ctx.rtt.to_millis());
  const int b = static_cast<int>(ctx.battery *
                                 static_cast<double>(kBatteryBuckets));
  key.battery_bucket = std::clamp(b, 0, kBatteryBuckets - 1);
  key.window = ((ctx.hour % 24) + 24) % 24 / kHoursPerWindow;
  return key;
}

PlanCache::PlanCache(PlanCacheConfig cfg) : cfg_(cfg) {}

bool PlanCache::expired(const Entry& e, TimePoint now) const {
  return now - e.inserted > cfg_.ttl;
}

bool PlanCache::within_hysteresis(const DecisionContext& ctx,
                                  const Entry& e) {
  const auto rel = [](double a, double b) {
    const double base = std::max(std::abs(b), 1e-9);
    return std::abs(a - b) / base;
  };
  // Bandwidth and RTT drift are judged *relatively*; battery is an
  // absolute state-of-charge delta with its own threshold — one threshold
  // for both would mix "5% slower link" with "5 percentage points less
  // charge".
  return rel(ctx.uplink.to_mbps(), e.uplink.to_mbps()) <= kCacheHysteresis &&
         rel(ctx.rtt.to_millis(), e.rtt.to_millis()) <= kCacheHysteresis &&
         std::abs(ctx.battery - e.battery) <= kBatteryHysteresis;
}

SharedPlan PlanCache::lookup(const DecisionContext& ctx, TimePoint now) {
  const PlanKey exact = quantize(ctx);

  // Probes a single key; erases (and counts) an expired occupant. Returns
  // the live entry or nullptr.
  const auto probe = [&](const PlanKey& key) -> Entry* {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    if (expired(it->second, now)) {
      entries_.erase(it);
      ++stats_.expiries;
      return nullptr;
    }
    return &it->second;
  };

  if (Entry* e = probe(exact); e != nullptr) {
    e->last_used = ++tick_;
    ++stats_.hits;
    if (trace_)
      obs::emit(trace_, now, "broker.plan_cache_hit",
                {{"workload", names_->name(ctx.workload)},
                 {"hysteresis", false}});
    return e->plan;
  }

  // Bucket-boundary hysteresis: a context that just crossed into an empty
  // neighbouring bucket may still be close (in raw terms) to the plan next
  // door. Probe the six axis neighbours in a fixed order and reuse the
  // first whose planning context is within the drift envelope.
  const PlanKey neighbours[6] = {
      {exact.workload, exact.bw_bucket - 1, exact.rtt_bucket,
       exact.battery_bucket, exact.window},
      {exact.workload, exact.bw_bucket + 1, exact.rtt_bucket,
       exact.battery_bucket, exact.window},
      {exact.workload, exact.bw_bucket, exact.rtt_bucket - 1,
       exact.battery_bucket, exact.window},
      {exact.workload, exact.bw_bucket, exact.rtt_bucket + 1,
       exact.battery_bucket, exact.window},
      {exact.workload, exact.bw_bucket, exact.rtt_bucket,
       exact.battery_bucket - 1, exact.window},
      {exact.workload, exact.bw_bucket, exact.rtt_bucket,
       exact.battery_bucket + 1, exact.window},
  };
  for (const PlanKey& key : neighbours) {
    Entry* e = probe(key);
    if (e == nullptr || !within_hysteresis(ctx, *e)) continue;
    e->last_used = ++tick_;
    ++stats_.hysteresis_hits;
    if (trace_)
      obs::emit(trace_, now, "broker.plan_cache_hit",
                {{"workload", names_->name(ctx.workload)},
                 {"hysteresis", true}});
    return e->plan;
  }

  ++stats_.misses;
  if (trace_)
    obs::emit(trace_, now, "broker.plan_cache_miss",
              {{"workload", names_->name(ctx.workload)}});
  return nullptr;
}

void PlanCache::insert(const DecisionContext& ctx, SharedPlan plan,
                       TimePoint now) {
  NTCO_EXPECTS(plan != nullptr);
  const PlanKey key = quantize(ctx);
  Entry& e = entries_[key];
  e.plan = std::move(plan);
  e.uplink = ctx.uplink;
  e.rtt = ctx.rtt;
  e.battery = ctx.battery;
  e.inserted = now;
  e.last_used = ++tick_;
  if (entries_.size() > kCacheCapacity) evict_lru();
}

void PlanCache::evict_lru() {
  // O(n) sorted-map scan: capacity is small (hundreds) and eviction only
  // runs on insert-over-capacity, so the simplicity beats an intrusive
  // LRU list. Ties cannot happen (ticks are unique).
  auto victim = entries_.begin();
  for (auto it = entries_.begin(); it != entries_.end(); ++it)
    if (it->second.last_used < victim->second.last_used) victim = it;
  entries_.erase(victim);
  ++stats_.evictions;
}

}  // namespace ntco::broker
