#include "ntco/broker/broker.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ntco/app/workloads.hpp"
#include "ntco/common/contracts.hpp"
#include "ntco/common/rng.hpp"
#include "ntco/fleet/replicator.hpp"
#include "ntco/net/path.hpp"

// Suite names start with "Broker" so tools/ci.sh can rerun exactly these
// (plus the Fleet suites) under ThreadSanitizer (ctest -R '^Fleet|^Broker').

namespace ntco::broker {
namespace {

// ---------------------------------------------------------------- PlanCache

/// A recognisable plan: unit tests only need identity, not deployability.
SharedPlan plan_with(Duration tag) {
  core::DeploymentPlan p;
  p.predicted.latency = tag;
  return std::make_shared<const core::DeploymentPlan>(std::move(p));
}

DecisionContext ctx_with(WorkloadId workload, double mbps,
                         double battery = 1.0) {
  DecisionContext ctx;
  ctx.workload = workload;
  ctx.uplink = DataRate::kilobits_per_second(
      static_cast<std::uint64_t>(std::llround(mbps * 1000.0)));
  ctx.rtt = Duration::millis(20);
  ctx.battery = battery;
  ctx.hour = 10;
  return ctx;
}

TEST(BrokerPlanCache, MissThenInsertThenHit) {
  PlanCache cache({});
  const auto ctx = ctx_with(0, 80.0);
  const TimePoint t0 = TimePoint::origin();

  EXPECT_EQ(cache.lookup(ctx, t0), nullptr);
  cache.insert(ctx, plan_with(Duration::seconds(7)), t0);
  const SharedPlan p = cache.lookup(ctx, t0);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->predicted.latency, Duration::seconds(7));
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(BrokerPlanCache, LruEvictionOrder) {
  PlanCache cache({});
  const TimePoint t0 = TimePoint::origin();
  // Distinct workloads occupy distinct keys: fill the cache exactly.
  std::vector<DecisionContext> ctx;
  for (std::size_t i = 0; i <= kCacheCapacity; ++i)
    ctx.push_back(ctx_with(static_cast<WorkloadId>(i), 80.0));
  for (std::size_t i = 0; i < kCacheCapacity; ++i)
    cache.insert(ctx[i], plan_with(Duration::seconds(1)), t0);
  EXPECT_EQ(cache.stats().evictions, 0u);
  // Touch the oldest entry: now the second oldest is least recently used.
  ASSERT_NE(cache.lookup(ctx[0], t0), nullptr);
  cache.insert(ctx[kCacheCapacity], plan_with(Duration::seconds(2)), t0);

  EXPECT_EQ(cache.size(), kCacheCapacity);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(ctx[1], t0), nullptr);  // evicted as LRU
  EXPECT_NE(cache.lookup(ctx[0], t0), nullptr);  // survived (recently used)
  for (std::size_t i = 2; i <= kCacheCapacity; ++i)
    EXPECT_NE(cache.lookup(ctx[i], t0), nullptr) << i;
}

TEST(BrokerPlanCache, TtlExpiresAtSimulatedTime) {
  PlanCacheConfig cfg;
  cfg.ttl = Duration::hours(1);
  PlanCache cache(cfg);
  const auto ctx = ctx_with(0, 80.0);
  const TimePoint t0 = TimePoint::origin();

  cache.insert(ctx, plan_with(Duration::seconds(1)), t0);
  EXPECT_NE(cache.lookup(ctx, t0 + Duration::minutes(59)), nullptr);
  EXPECT_EQ(cache.lookup(ctx, t0 + Duration::minutes(61)), nullptr);
  EXPECT_EQ(cache.stats().expiries, 1u);
  EXPECT_EQ(cache.size(), 0u);  // expired entries are erased on lookup
}

TEST(BrokerPlanCache, HysteresisReusesNeighbourWithinDrift) {
  PlanCache cache({});  // kCacheHysteresis = kBatteryHysteresis = 0.25
  const TimePoint t0 = TimePoint::origin();
  // Planned at 80 Mbps -> bucket round(log2 80) = 6.
  cache.insert(ctx_with(0, 80.0), plan_with(Duration::seconds(1)), t0);

  // 96 Mbps quantizes to neighbouring bucket 7, but the raw drift from the
  // planning context is 20% <= 25%: the plan is still good.
  EXPECT_NE(cache.lookup(ctx_with(0, 96.0), t0), nullptr);
  EXPECT_EQ(cache.stats().hysteresis_hits, 1u);

  // 160 Mbps also probes bucket 6 as a neighbour, but 100% drift is a
  // genuine regime change: replan.
  EXPECT_EQ(cache.lookup(ctx_with(0, 160.0), t0), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);

  // Battery drift is absolute, against kBatteryHysteresis: 0.50 -> 0.30
  // (neighbouring bucket 1) is a 40% relative drift, past
  // kCacheHysteresis, yet only 0.20 of charge, so the plan is reused; a
  // drift of exactly 0.25 still is.
  cache.insert(ctx_with(1, 80.0, 0.50), plan_with(Duration::seconds(2)), t0);
  EXPECT_NE(cache.lookup(ctx_with(1, 80.0, 0.30), t0), nullptr);
  EXPECT_NE(cache.lookup(ctx_with(1, 80.0, 0.25), t0), nullptr);
  EXPECT_EQ(cache.stats().hysteresis_hits, 3u);
  // 0.74 -> 0.45 crosses into bucket 1 with 0.29 of charge: replan.
  cache.insert(ctx_with(2, 80.0, 0.74), plan_with(Duration::seconds(3)), t0);
  EXPECT_EQ(cache.lookup(ctx_with(2, 80.0, 0.45), t0), nullptr);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST(BrokerPlanCache, QuantizeClampsAndWindows) {
  // kBatteryBuckets = 4, kHoursPerWindow = 6.
  auto ctx = ctx_with(0, 80.0, /*battery=*/1.0);
  ctx.hour = 23;
  const PlanKey k = quantize(ctx);
  EXPECT_EQ(k.battery_bucket, 3);  // full charge clamps into the top bucket
  EXPECT_EQ(k.window, 3);          // 23:00 is the last 6-hour window
  ctx.hour = 0;
  ctx.battery = 0.0;
  const PlanKey k2 = quantize(ctx);
  EXPECT_EQ(k2.battery_bucket, 0);
  EXPECT_EQ(k2.window, 0);
}

// --------------------------------------------------------------- Admission

TEST(BrokerAdmission, AdmitsWithinBurstThenDefers) {
  AdmissionConfig cfg;
  cfg.rate_per_second = 1.0;
  cfg.burst = 2.0;
  cfg.min_defer = Duration::seconds(1);
  AdmissionController adm(cfg);
  const TimePoint t0 = TimePoint::origin();
  const TimePoint deadline = t0 + Duration::hours(1);
  const Duration est = Duration::seconds(10);

  EXPECT_EQ(adm.decide(t0, deadline, est).verdict, AdmissionVerdict::Admitted);
  EXPECT_EQ(adm.decide(t0, deadline, est).verdict, AdmissionVerdict::Admitted);
  const auto d = adm.decide(t0, deadline, est);
  EXPECT_EQ(d.verdict, AdmissionVerdict::Deferred);
  EXPECT_GE(d.retry_at, t0 + cfg.min_defer);
  EXPECT_EQ(adm.stats().deferred_outstanding, 1u);

  // Tokens refill with simulated time: two seconds buy two decisions.
  adm.retry_resolved();
  EXPECT_EQ(adm.decide(t0 + Duration::seconds(2), deadline, est).verdict,
            AdmissionVerdict::Admitted);
}

TEST(BrokerAdmission, BacklogSpreadsRetryQuotes) {
  AdmissionConfig cfg;
  cfg.rate_per_second = 1.0;
  cfg.burst = 1.0;
  cfg.min_defer = Duration::zero() + Duration::micros(1);
  AdmissionController adm(cfg);
  const TimePoint t0 = TimePoint::origin();
  const TimePoint deadline = t0 + Duration::hours(1);

  ASSERT_EQ(adm.decide(t0, deadline, Duration::zero()).verdict,
            AdmissionVerdict::Admitted);
  const auto d1 = adm.decide(t0, deadline, Duration::zero());
  const auto d2 = adm.decide(t0, deadline, Duration::zero());
  ASSERT_EQ(d1.verdict, AdmissionVerdict::Deferred);
  ASSERT_EQ(d2.verdict, AdmissionVerdict::Deferred);
  // The second deferral queues behind the first: its quote is later, so
  // the two retries drain at the sustained rate instead of colliding.
  EXPECT_GT(d2.retry_at, d1.retry_at);
}

TEST(BrokerAdmission, ShedsWhenDeadlineTooTight) {
  AdmissionConfig cfg;
  cfg.rate_per_second = 1.0;
  cfg.burst = 1.0;
  cfg.min_defer = Duration::seconds(30);
  AdmissionController adm(cfg);
  const TimePoint t0 = TimePoint::origin();

  ASSERT_EQ(adm.decide(t0, t0 + Duration::hours(1), Duration::seconds(1))
                .verdict,
            AdmissionVerdict::Admitted);
  // No token left; the wait plus the job itself overshoots the deadline.
  const auto d =
      adm.decide(t0, t0 + Duration::seconds(20), Duration::seconds(1));
  EXPECT_EQ(d.verdict, AdmissionVerdict::Shed);
  EXPECT_EQ(d.reason, ShedReason::DeadlineTooTight);
}

TEST(BrokerAdmission, ShedsWhenQueueFull) {
  AdmissionConfig cfg;
  cfg.rate_per_second = 1.0;
  cfg.burst = 1.0;
  cfg.max_deferred = 1;
  AdmissionController adm(cfg);
  const TimePoint t0 = TimePoint::origin();
  const TimePoint deadline = t0 + Duration::hours(10);

  ASSERT_EQ(adm.decide(t0, deadline, Duration::zero()).verdict,
            AdmissionVerdict::Admitted);
  ASSERT_EQ(adm.decide(t0, deadline, Duration::zero()).verdict,
            AdmissionVerdict::Deferred);
  const auto d = adm.decide(t0, deadline, Duration::zero());
  EXPECT_EQ(d.verdict, AdmissionVerdict::Shed);
  EXPECT_EQ(d.reason, ShedReason::QueueFull);
  EXPECT_EQ(adm.stats().shed, 1u);
}

TEST(BrokerAdmission, QueueFullOutranksDeadlineTooTight) {
  // A request that hits BOTH shed conditions must report QueueFull: a full
  // deferral queue sheds regardless of slack, and blaming the client's
  // deadline would misreport capacity exhaustion. (The old precedence
  // checked the deadline first.)
  AdmissionConfig cfg;
  cfg.rate_per_second = 1.0;
  cfg.burst = 1.0;
  cfg.max_deferred = 1;
  cfg.min_defer = Duration::seconds(30);
  AdmissionController adm(cfg);
  const TimePoint t0 = TimePoint::origin();
  const TimePoint far = t0 + Duration::hours(10);

  ASSERT_EQ(adm.decide(t0, far, Duration::zero()).verdict,
            AdmissionVerdict::Admitted);
  ASSERT_EQ(adm.decide(t0, far, Duration::zero()).verdict,
            AdmissionVerdict::Deferred);
  // Queue now full AND this deadline cannot absorb the 30 s min wait.
  const auto d =
      adm.decide(t0, t0 + Duration::seconds(5), Duration::seconds(1));
  EXPECT_EQ(d.verdict, AdmissionVerdict::Shed);
  EXPECT_EQ(d.reason, ShedReason::QueueFull);
}

TEST(BrokerAdmission, QueueBoundaryFreesExactlyOneSlotOnRetryResolved) {
  AdmissionConfig cfg;
  cfg.rate_per_second = 1.0;
  cfg.burst = 1.0;
  cfg.max_deferred = 2;
  AdmissionController adm(cfg);
  const TimePoint t0 = TimePoint::origin();
  const TimePoint deadline = t0 + Duration::hours(10);

  ASSERT_EQ(adm.decide(t0, deadline, Duration::zero()).verdict,
            AdmissionVerdict::Admitted);
  // Fill the deferral queue to its bound exactly.
  ASSERT_EQ(adm.decide(t0, deadline, Duration::zero()).verdict,
            AdmissionVerdict::Deferred);
  ASSERT_EQ(adm.decide(t0, deadline, Duration::zero()).verdict,
            AdmissionVerdict::Deferred);
  EXPECT_EQ(adm.stats().deferred_outstanding, 2u);
  EXPECT_EQ(adm.decide(t0, deadline, Duration::zero()).reason,
            ShedReason::QueueFull);
  // One retry resolves; exactly one deferral slot reopens.
  adm.retry_resolved();
  EXPECT_EQ(adm.stats().deferred_outstanding, 1u);
  ASSERT_EQ(adm.decide(t0, deadline, Duration::zero()).verdict,
            AdmissionVerdict::Deferred);
  EXPECT_EQ(adm.decide(t0, deadline, Duration::zero()).reason,
            ShedReason::QueueFull);
  EXPECT_EQ(adm.stats().deferred_outstanding, 2u);
  EXPECT_EQ(adm.stats().shed, 2u);
}

TEST(BrokerAdmission, ShedsInfeasibleRequestEvenWithTokenAvailable) {
  // Regression: the est-vs-deadline feasibility check used to run only on
  // the no-token path, so a request with now + est > deadline — already
  // guaranteed to miss — burned a token and dispatched anyway whenever one
  // was available.
  AdmissionConfig cfg;
  cfg.rate_per_second = 1.0;
  cfg.burst = 1.0;
  AdmissionController adm(cfg);
  const TimePoint t0 = TimePoint::origin();

  // Bucket is full, yet the job cannot make its deadline even if admitted
  // this instant: shed up front, loudly.
  const auto d =
      adm.decide(t0, t0 + Duration::seconds(10), Duration::seconds(20));
  EXPECT_EQ(d.verdict, AdmissionVerdict::Shed);
  EXPECT_EQ(d.reason, ShedReason::DeadlineTooTight);
  EXPECT_EQ(adm.stats().shed, 1u);

  // The infeasible request must not have consumed the token: a feasible
  // one right behind it (burst=1) is still admitted.
  EXPECT_EQ(adm.decide(t0, t0 + Duration::hours(1), Duration::seconds(1))
                .verdict,
            AdmissionVerdict::Admitted);
}

TEST(BrokerAdmission, OpenLoopRandomizedInvariants) {
  // An open-loop arrival stream (nobody waits for permission to arrive)
  // hammers two controllers; the invariants must hold at every step:
  //   1. deferred_outstanding tracks defers minus resolved retries exactly
  //      (never underflows, never leaks), and a quoted retry waits at
  //      least min_defer;
  //   2. shed-reason precedence: an infeasible-on-arrival request sheds
  //      DeadlineTooTight regardless of queue state; a wait-induced shed
  //      with a full queue reports QueueFull, never the client's deadline.
  AdmissionConfig cfg;
  cfg.rate_per_second = 2.0;
  cfg.burst = 4.0;
  cfg.max_deferred = 4096;  // never binds for the far-deadline controller
  cfg.min_defer = Duration::seconds(1);
  AdmissionController calm(cfg);

  AdmissionConfig small = cfg;
  small.max_deferred = 4;  // the precedence controller's queue binds often
  AdmissionController tight(small);

  Rng rng(31);
  TimePoint now = TimePoint::origin();
  std::uint64_t calm_out = 0;
  std::uint64_t tight_out = 0;
  for (int i = 0; i < 5000; ++i) {
    now = now + Duration::from_seconds(rng.exponential(0.25));
    // One shared draw per step keeps both controllers on identical inputs;
    // draining at least as fast as the ~0.5/step deferral influx keeps the
    // backlog small.
    const std::uint64_t resolve_n =
        static_cast<std::uint64_t>(rng.uniform_int(0, 2));
    const Duration est = Duration::from_seconds(rng.uniform(0.1, 5.0));
    const auto drain = [&](AdmissionController& adm, std::uint64_t& mirror) {
      for (std::uint64_t r = 0; r < resolve_n && mirror > 0; ++r) {
        adm.retry_resolved();
        --mirror;
      }
    };
    drain(calm, calm_out);
    drain(tight, tight_out);

    // The calm controller sees far deadlines only, so it never sheds.
    const auto dc = calm.decide(now, now + Duration::hours(2), est);
    ASSERT_NE(dc.verdict, AdmissionVerdict::Shed);
    if (dc.verdict == AdmissionVerdict::Deferred) {
      ++calm_out;
      EXPECT_GE(dc.retry_at, now + cfg.min_defer);
    }
    ASSERT_EQ(calm.stats().deferred_outstanding, calm_out);  // invariant 1

    // The precedence controller sees mixed (sometimes hopeless) deadlines.
    const TimePoint deadline =
        now + Duration::from_seconds(rng.uniform(0.5, 120.0));
    const auto dt = tight.decide(now, deadline, est);
    if (dt.verdict == AdmissionVerdict::Deferred) ++tight_out;
    if (dt.verdict == AdmissionVerdict::Shed) {
      if (now + est > deadline) {
        // Infeasible on arrival: always the client's problem.
        EXPECT_EQ(dt.reason, ShedReason::DeadlineTooTight);
      } else if (tight_out >= small.max_deferred) {
        // Wait-induced shed with a full queue: capacity, not the deadline.
        EXPECT_EQ(dt.reason, ShedReason::QueueFull);
      } else {
        EXPECT_EQ(dt.reason, ShedReason::DeadlineTooTight);
      }
    }
    ASSERT_EQ(tight.stats().deferred_outstanding, tight_out);
  }
  // The stream actually exercised all three paths.
  EXPECT_GT(calm.stats().deferrals, 0u);
  EXPECT_GT(tight.stats().shed, 0u);
  EXPECT_GT(tight.stats().admitted, 0u);
}

// ------------------------------------------------------------------- Batch

using JobId = BatchDispatcher::JobId;

/// Stands in for the broker's request records: records when each job
/// starts, runs it for `service`, then starts its lane successor.
struct LaneRecorder final : BatchDispatcher::Runner {
  explicit LaneRecorder(sim::Simulator& s, Duration service = {})
      : sim(s), service_time(service) {}
  LaneRecorder(const LaneRecorder&) = delete;
  LaneRecorder& operator=(const LaneRecorder&) = delete;

  void follow(JobId prev, JobId next) override { successor[prev] = next; }
  void start(JobId job) override {
    runs.emplace_back(job, sim.now().since_origin());
    sim.schedule_after(service_time, [this, job] {
      const auto it = successor.find(job);
      if (it != successor.end()) start(it->second);
    });
  }

  sim::Simulator& sim;
  Duration service_time;
  std::map<JobId, JobId> successor;
  std::vector<std::pair<JobId, Duration>> runs;
};

TEST(BrokerBatch, FlushesAtTheAlignedInstant) {
  sim::Simulator sim;
  LaneRecorder lanes(sim);
  BatchDispatcher d(sim, lanes);
  const TimePoint at = TimePoint::at(Duration::minutes(10));
  for (JobId i = 0; i < 3; ++i) d.enqueue(0, at, i);
  EXPECT_EQ(d.open_batches(), 1u);
  sim.run();
  ASSERT_EQ(lanes.runs.size(), 3u);
  for (const auto& [job, t] : lanes.runs) EXPECT_EQ(t, Duration::minutes(10));
  EXPECT_EQ(d.stats().batches, 1u);
  EXPECT_EQ(d.stats().jobs_dispatched, 3u);
  EXPECT_EQ(d.open_batches(), 0u);
}

TEST(BrokerBatch, SealedBatchKeepsItsFlushInstant) {
  sim::Simulator sim;
  LaneRecorder lanes(sim);
  BatchDispatcher d(sim, lanes);
  const TimePoint at = TimePoint::at(Duration::minutes(10));
  for (JobId i = 0; i <= kMaxBatch; ++i) d.enqueue(0, at, i);
  EXPECT_EQ(d.open_batches(), 1u);  // the sealed batch left the map
  sim.run();
  // The first kMaxBatch sealed the batch, the next re-opened the key —
  // but nothing dispatched before the price-aligned instant.
  ASSERT_EQ(lanes.runs.size(), kMaxBatch + 1);
  for (const auto& [job, t] : lanes.runs) EXPECT_EQ(t, Duration::minutes(10));
  EXPECT_EQ(d.stats().batches, 2u);
  EXPECT_EQ(d.stats().sealed, 1u);
  // The sealed batch kept its map node: it moved to the sealed batches.
}

TEST(BrokerBatch, LanesChainOnCompletion) {
  sim::Simulator sim;
  // Each job takes one simulated second; the lane's successor must not
  // start before it completed.
  LaneRecorder lanes(sim, Duration::seconds(1));
  BatchDispatcher d(sim, lanes);
  const TimePoint at = TimePoint::at(Duration::minutes(10));
  // Two full rounds over the lanes plus one job into a third.
  const JobId jobs = 2 * kBatchLanes + 1;
  for (JobId i = 0; i < jobs; ++i) d.enqueue(0, at, i);
  sim.run();
  ASSERT_EQ(lanes.runs.size(), jobs);
  // Round-robin: job i runs in lane i % kBatchLanes, after the i /
  // kBatchLanes jobs ahead of it there, one second each.
  for (JobId i = 0; i < jobs; ++i) {
    EXPECT_EQ(lanes.runs[i].first, i);  // enqueue order
    const auto ahead = static_cast<std::int64_t>(i / kBatchLanes);
    EXPECT_EQ(lanes.runs[i].second,
              Duration::minutes(10) + Duration::seconds(ahead));
  }
}

// ------------------------------------------------------------------- Serve

/// End-to-end fixture: a full world plus a broker fronting it.
struct ServeFixture {
  sim::Simulator sim;
  serverless::Platform platform;
  device::Device ue;
  net::NetworkPath path;
  core::OffloadController controller;
  partition::MinCutPartitioner mincut;
  Broker broker;

  explicit ServeFixture(BrokerConfig cfg = {})
      : platform(sim, {}),
        ue(device::budget_phone()),
        path(net::make_fixed_path(net::profile_wifi())),
        controller(sim, platform, ue, path, {}),
        broker(sim, platform, controller, mincut, std::move(cfg)) {}
};

TEST(BrokerServe, CompletesAndCachesAcrossUsers) {
  ServeFixture fx;
  const auto g = app::workloads::photo_backup();
  std::vector<ServeOutcome> outcomes;
  ServeRequest req;
  req.app = &g;
  fx.broker.serve(req, [&](const ServeOutcome& o) { outcomes.push_back(o); });
  fx.broker.serve(req, [&](const ServeOutcome& o) { outcomes.push_back(o); });
  fx.sim.run();

  ASSERT_EQ(outcomes.size(), 2u);
  for (const auto& o : outcomes) {
    EXPECT_EQ(o.status, ServeStatus::Completed);
    EXPECT_GT(o.finished, o.released);
    EXPECT_FALSE(o.report.failed);
  }
  // Identical context: one request planned (and paid for it), the other
  // hit the cache at kHitCost. Outcome order is not request order — the
  // hit's decision is milliseconds shorter, so it can finish first.
  const Duration miss_cost =
      kPlanCostBase +
      kPlanCostPerComponent * static_cast<double>(g.component_count());
  ASSERT_NE(outcomes[0].cache_hit, outcomes[1].cache_hit);
  const ServeOutcome& hit = outcomes[0].cache_hit ? outcomes[0] : outcomes[1];
  const ServeOutcome& miss = outcomes[0].cache_hit ? outcomes[1] : outcomes[0];
  EXPECT_EQ(miss.decision_latency, miss_cost);
  EXPECT_EQ(hit.decision_latency, kHitCost);
  EXPECT_EQ(fx.broker.stats().completed, 2u);
  EXPECT_EQ(fx.broker.cache().stats().hits, 1u);
}

TEST(BrokerServe, NoCacheModeAlwaysReplans) {
  BrokerConfig cfg;
  cfg.cache_enabled = false;
  cfg.batching_enabled = false;
  cfg.defer.policy = sched::Policy::Immediate;
  ServeFixture fx(cfg);
  const auto g = app::workloads::photo_backup();
  std::vector<ServeOutcome> outcomes;
  ServeRequest req;
  req.app = &g;
  fx.broker.serve(req, [&](const ServeOutcome& o) { outcomes.push_back(o); });
  fx.broker.serve(req, [&](const ServeOutcome& o) { outcomes.push_back(o); });
  fx.sim.run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_FALSE(outcomes[0].cache_hit);
  EXPECT_FALSE(outcomes[1].cache_hit);
  EXPECT_EQ(fx.broker.cache().stats().hits + fx.broker.cache().stats().misses,
            0u);
}

TEST(BrokerServe, ShedOutcomeIsDelivered) {
  BrokerConfig cfg;
  cfg.admission.rate_per_second = 1.0;
  cfg.admission.burst = 1.0;
  cfg.admission.min_defer = Duration::minutes(5);
  ServeFixture fx(cfg);
  const auto g = app::workloads::photo_backup();
  std::vector<ServeOutcome> outcomes;
  ServeRequest req;
  req.app = &g;
  fx.broker.serve(req, [&](const ServeOutcome& o) { outcomes.push_back(o); });
  // Second request: no token left, and minutes of slack cannot absorb the
  // five-minute deferral floor.
  ServeRequest tight = req;
  tight.slack = Duration::minutes(2);
  fx.broker.serve(tight, [&](const ServeOutcome& o) { outcomes.push_back(o); });
  fx.sim.run();

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].status, ServeStatus::Shed);  // shed fires first
  EXPECT_EQ(outcomes[0].shed_reason, ShedReason::DeadlineTooTight);
  EXPECT_EQ(outcomes[1].status, ServeStatus::Completed);
  EXPECT_EQ(fx.broker.stats().shed, 1u);
}

TEST(BrokerServe, DeferredRequestRetriesThenCompletes) {
  BrokerConfig cfg;
  cfg.admission.rate_per_second = 1.0;
  cfg.admission.burst = 1.0;
  ServeFixture fx(cfg);
  const auto g = app::workloads::photo_backup();
  std::vector<ServeOutcome> outcomes;
  ServeRequest req;
  req.app = &g;
  // The second request finds the bucket empty and has hours of slack: it
  // defers, retries from its own record, and completes.
  for (int i = 0; i < 2; ++i)
    fx.broker.serve(req, [&](const ServeOutcome& o) { outcomes.push_back(o); });
  fx.sim.run();

  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_EQ(outcomes[0].deferrals + outcomes[1].deferrals, 1u);
  for (const auto& o : outcomes) EXPECT_EQ(o.status, ServeStatus::Completed);
  EXPECT_EQ(fx.broker.admission().stats().deferrals, 1u);
}

TEST(BrokerServe, MalformedRequestsAreRejectedWithTheirField) {
  ServeFixture fx;
  obs::MetricsRegistry metrics;
  obs::JsonlTraceWriter trace;
  fx.broker.attach_observer(&trace, &metrics);
  // Served at 1 h, so the largest slacks overflow their deadline.
  fx.sim.run_until(TimePoint::at(Duration::hours(1)));
  const Duration headroom = Duration::max() - fx.sim.now().since_origin();
  const auto g = app::workloads::photo_backup();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ServeRequest ok;
  ok.app = &g;

  std::vector<std::pair<ServeRequest, RejectReason>> cases;
  ServeRequest r = ok;
  r.app = nullptr;
  cases.emplace_back(r, RejectReason::App);
  for (const double battery : {-0.01, 1.01, kNaN, kInf}) {
    r = ok;
    r.battery = battery;
    cases.emplace_back(r, RejectReason::Battery);
  }
  for (const double scale : {0.0, -1.0, kNaN, kInf}) {
    r = ok;
    r.bandwidth_scale = scale;
    cases.emplace_back(r, RejectReason::BandwidthScale);
  }
  for (const Duration slack : {Duration::micros(-1), Duration::max(),
                               headroom + Duration::micros(1)}) {
    r = ok;
    r.slack = slack;
    cases.emplace_back(r, RejectReason::Slack);
  }
  // The first bad field names the rejection.
  r = ok;
  r.battery = kNaN;
  r.slack = Duration::micros(-1);
  cases.emplace_back(r, RejectReason::Battery);

  for (const auto& [req, why] : cases) {
    std::vector<ServeOutcome> got;
    fx.broker.serve(req, [&](const ServeOutcome& o) { got.push_back(o); });
    // Delivered inside serve(), before the simulator runs.
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, ServeStatus::Rejected);
    EXPECT_EQ(got[0].reject_reason, why);
    EXPECT_EQ(got[0].released, fx.sim.now());
    EXPECT_EQ(got[0].finished, fx.sim.now());
  }
  // A well-formed request after them is served as usual.
  std::vector<ServeOutcome> served;
  fx.broker.serve(ok, [&](const ServeOutcome& o) { served.push_back(o); });
  fx.sim.run();
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(served[0].status, ServeStatus::Completed);

  fx.broker.publish(metrics);
  const BrokerStats& s = fx.broker.stats();
  EXPECT_EQ(s.rejected, cases.size());
  EXPECT_EQ(s.requests, cases.size() + 1);
  EXPECT_EQ(s.requests, s.completed + s.failed + s.shed + s.rejected);
  EXPECT_EQ(metrics.counter("broker.rejected").value(), cases.size());
  EXPECT_EQ(metrics.counter("broker.requests").value(), cases.size() + 1);
  const std::string t = trace.str();
  EXPECT_NE(t.find("\"ev\":\"broker.request_rejected\",\"field\":\"app\""),
            std::string::npos);
  EXPECT_NE(t.find("\"field\":\"bandwidth_scale\""), std::string::npos);
  std::size_t records = 0;
  for (auto at = t.find("broker.request_rejected"); at != std::string::npos;
       at = t.find("broker.request_rejected", at + 1))
    ++records;
  EXPECT_EQ(records, cases.size());
}

TEST(BrokerServe, LargestRepresentableDeadlineIsServed) {
  // A slack whose deadline is exactly the last TimePoint is well formed,
  // and planning its start probes at most a day of tariff hours.
  for (const sched::Policy policy :
       {sched::Policy::Immediate, sched::Policy::CheapestWindow}) {
    SCOPED_TRACE(static_cast<int>(policy));
    BrokerConfig cfg;
    cfg.defer.policy = policy;
    ServeFixture fx(cfg);
    fx.sim.run_until(TimePoint::at(Duration::hours(1)));
    const auto g = app::workloads::photo_backup();
    ServeRequest req;
    req.app = &g;
    req.slack = Duration::max() - fx.sim.now().since_origin();
    std::vector<ServeOutcome> got;
    fx.broker.serve(req, [&](const ServeOutcome& o) { got.push_back(o); });
    fx.sim.run();
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].status, ServeStatus::Completed);
    EXPECT_LT(got[0].finished, TimePoint::at(Duration::hours(26)));
  }
}

/// `g` under another name: same components and flows.
app::TaskGraph renamed(const app::TaskGraph& g, std::string name) {
  app::TaskGraph out(std::move(name));
  for (const app::Component& comp : g.components()) out.add_component(comp);
  for (const app::DataFlow& f : g.flows()) out.add_flow(f.from, f.to, f.bytes);
  return out;
}

TEST(BrokerServe, OneNameSharesACacheRowAndABatchLane) {
  // The name is the workload's identity, not the graph object: a copy of
  // a graph under its name hits the row the original planned and joins
  // its batch, while the same graph under another name does neither.
  ServeFixture fx;
  obs::JsonlTraceWriter trace;
  fx.broker.attach_observer(&trace, nullptr);
  const app::TaskGraph original = app::workloads::photo_backup();
  const app::TaskGraph copy = original;
  const app::TaskGraph other = renamed(original, "photo-backup-2");
  std::vector<ServeOutcome> got;
  for (const app::TaskGraph* g : {&original, &copy, &other}) {
    ServeRequest req;
    req.app = g;
    fx.broker.serve(req, [&](const ServeOutcome& o) { got.push_back(o); });
  }
  fx.sim.run();
  ASSERT_EQ(got.size(), 3u);
  for (const ServeOutcome& o : got)
    EXPECT_EQ(o.status, ServeStatus::Completed);
  const PlanCacheStats& cache = fx.broker.cache().stats();
  EXPECT_EQ(cache.misses, 2u);  // the original and the other name
  EXPECT_EQ(cache.hits, 1u);    // the copy
  EXPECT_EQ(fx.broker.cache().size(), 2u);
  EXPECT_EQ(fx.broker.dispatcher().stats().batches, 2u);
  const std::string t = trace.str();
  EXPECT_NE(t.find(R"("group":"photo-backup","jobs":2,)"), std::string::npos);
  EXPECT_NE(t.find(R"("group":"photo-backup-2","jobs":1,)"),
            std::string::npos);
  EXPECT_NE(
      t.find(R"("ev":"broker.plan_cache_hit","workload":"photo-backup",)"),
      std::string::npos);
}

// -------------------------------------------------------------- Two-stage

BrokerConfig two_stage_cfg() {
  BrokerConfig cfg;
  cfg.two_stage_enabled = true;
  cfg.batching_enabled = false;
  cfg.defer.policy = sched::Policy::Immediate;
  return cfg;
}

TEST(BrokerTwoStage, RequiresTheCache) {
  // The cache is the stage-1 lookup and the stage-2 publication point; a
  // two-stage broker without it would resolve into the void.
  BrokerConfig cfg = two_stage_cfg();
  cfg.cache_enabled = false;
  EXPECT_THROW({ ServeFixture fx(cfg); }, ContractViolation);
}

TEST(BrokerTwoStage, MissServedByHeuristicThenExactPublishes) {
  ServeFixture fx(two_stage_cfg());
  const auto g = app::workloads::photo_backup();
  std::vector<ServeOutcome> outcomes;
  ServeRequest req;
  req.app = &g;
  fx.broker.serve(req, [&](const ServeOutcome& o) { outcomes.push_back(o); });
  // The exact solve lands one solve cost after the miss.
  const Duration solve =
      kPlanCostBase +
      kPlanCostPerComponent * static_cast<double>(g.component_count());
  std::uint64_t resolves_early = 0;
  std::uint64_t resolves_late = 0;
  fx.sim.schedule_at(TimePoint::origin() + solve * 0.5, [&] {
    resolves_early = fx.broker.twostage().resolves;
  });
  fx.sim.schedule_at(TimePoint::origin() + solve * 1.5, [&] {
    resolves_late = fx.broker.twostage().resolves;
  });
  fx.sim.run();
  EXPECT_EQ(resolves_early, 0u);
  EXPECT_EQ(resolves_late, 1u);

  // Stage 1: the miss was answered immediately by the heuristic at its
  // (much cheaper) decision cost — no multi-ms plan on the serving path.
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].status, ServeStatus::Completed);
  EXPECT_TRUE(outcomes[0].heuristic_serve);
  EXPECT_FALSE(outcomes[0].cache_hit);
  EXPECT_EQ(outcomes[0].decision_latency, kHeuristicCost);
  EXPECT_EQ(fx.broker.twostage().fast_serves, 1u);

  // Stage 2 resolved in the background and published the *exact* plan.
  EXPECT_EQ(fx.broker.twostage().resolves, 1u);
  EXPECT_LE(fx.broker.twostage().agreements, fx.broker.twostage().resolves);
  EXPECT_EQ(fx.broker.cache().size(), 1u);

  // The next request in the bucket gets the published exact plan: a cache
  // hit, not another heuristic serve.
  fx.broker.serve(req, [&](const ServeOutcome& o) { outcomes.push_back(o); });
  fx.sim.run();
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[1].cache_hit);
  EXPECT_FALSE(outcomes[1].heuristic_serve);
  EXPECT_EQ(outcomes[1].decision_latency, kHitCost);
  EXPECT_EQ(fx.broker.twostage().fast_serves, 1u);  // no second fast serve
}

TEST(BrokerTwoStage, SameBucketBurstResolvesOnce) {
  ServeFixture fx(two_stage_cfg());
  const auto g = app::workloads::photo_backup();
  std::uint64_t served = 0;
  ServeRequest req;
  req.app = &g;
  // A burst of identical-context misses lands before the exact solve can
  // publish: every one is fast-served, but only ONE solver run is in
  // flight for the bucket — a churn burst must not become a solver storm.
  for (int i = 0; i < 3; ++i)
    fx.broker.serve(req, [&](const ServeOutcome& o) {
      if (o.status == ServeStatus::Completed && o.heuristic_serve) ++served;
    });
  fx.sim.run();

  EXPECT_EQ(served, 3u);
  EXPECT_EQ(fx.broker.twostage().fast_serves, 3u);
  EXPECT_EQ(fx.broker.twostage().resolves, 1u);
  EXPECT_EQ(fx.broker.cache().stats().misses, 3u);
}

// ------------------------------------------------------------ Determinism

/// A miniature F12 shard: one broker serving a small random population.
struct ShardOut {
  obs::MetricsRegistry metrics;
  obs::JsonlTraceWriter trace;
  std::uint64_t rejected = 0;
};

/// The merged fleet output, plus each shard's own dumps in shard order.
struct FleetOut {
  obs::MetricsRegistry metrics;
  obs::JsonlTraceWriter trace;
  std::vector<std::string> shard_metrics;
  std::vector<std::string> shard_traces;
  std::vector<std::uint64_t> shard_rejected;
};

constexpr std::size_t kFleetShards = 8;

/// Runs the fleet; shard `poisoned` (none by default) also receives one
/// malformed request, scheduled without drawing from its rng.
FleetOut run_fleet(std::size_t threads, std::size_t poisoned = kFleetShards) {
  fleet::Replicator rep(99, threads);
  return rep.reduce(
      kFleetShards, FleetOut{},
      [poisoned](fleet::ShardContext& ctx) {
        ShardOut out;
        ServeFixture fx;
        fx.broker.attach_observer(&out.trace, &out.metrics);
        const auto graphs = app::workloads::all();
        for (int u = 0; u < 24; ++u) {
          const auto wl = static_cast<std::size_t>(
              ctx.rng.uniform_int(0, static_cast<std::int64_t>(graphs.size()) - 1));
          const double bw = std::exp2(ctx.rng.uniform(-2.0, 2.0));
          const double batt = ctx.rng.uniform(0.05, 1.0);
          const auto at = Duration::seconds(ctx.rng.uniform_int(0, 60));
          fx.sim.schedule_at(TimePoint::at(at), [&fx, &graphs, wl, bw, batt] {
            ServeRequest req;
            req.app = &graphs[wl];
            req.battery = batt;
            req.bandwidth_scale = bw;
            fx.broker.serve(req);
          });
        }
        if (ctx.shard == poisoned)
          fx.sim.schedule_at(TimePoint::at(Duration::seconds(30)),
                             [&fx, &graphs] {
                               ServeRequest bad;
                               bad.app = &graphs[0];
                               bad.battery =
                                   std::numeric_limits<double>::quiet_NaN();
                               fx.broker.serve(bad);
                             });
        fx.sim.run();
        fx.broker.publish(out.metrics);
        out.rejected = fx.broker.stats().rejected;
        return out;
      },
      [](FleetOut& acc, ShardOut&& shard, std::size_t) {
        acc.metrics.merge_from(shard.metrics);
        acc.trace.append_from(shard.trace);
        acc.shard_metrics.push_back(shard.metrics.to_csv());
        acc.shard_traces.push_back(shard.trace.str());
        acc.shard_rejected.push_back(shard.rejected);
      });
}

TEST(BrokerDeterminism, FleetMergeByteIdenticalAcrossThreads) {
  const FleetOut one = run_fleet(1);
  const FleetOut eight = run_fleet(8);
  EXPECT_FALSE(one.trace.str().empty());
  EXPECT_EQ(one.metrics.to_csv(), eight.metrics.to_csv());
  EXPECT_EQ(one.trace.str(), eight.trace.str());
}

TEST(BrokerDeterminism, PoisonedRequestChangesOnlyItsShard) {
  // One malformed request used to trip a contract inside a simulator event
  // and abort the whole fleet run. Now it costs one request.
  constexpr std::size_t kPoisoned = 3;
  const FleetOut clean = run_fleet(4);
  const FleetOut poisoned = run_fleet(4, kPoisoned);
  ASSERT_EQ(poisoned.shard_traces.size(), kFleetShards);
  for (std::size_t s = 0; s < kFleetShards; ++s) {
    if (s == kPoisoned) continue;
    EXPECT_EQ(poisoned.shard_rejected[s], 0u) << s;
    EXPECT_EQ(poisoned.shard_metrics[s], clean.shard_metrics[s]) << s;
    EXPECT_EQ(poisoned.shard_traces[s], clean.shard_traces[s]) << s;
  }
  EXPECT_EQ(poisoned.shard_rejected[kPoisoned], 1u);
  // The poisoned shard's trace is the clean one plus the rejection record.
  std::string trace = poisoned.shard_traces[kPoisoned];
  const std::size_t at = trace.find("\"ev\":\"broker.request_rejected\"");
  ASSERT_NE(at, std::string::npos);
  const std::size_t begin = trace.rfind('\n', at) + 1;
  trace.erase(begin, trace.find('\n', at) + 1 - begin);
  EXPECT_EQ(trace, clean.shard_traces[kPoisoned]);
}

}  // namespace
}  // namespace ntco::broker
