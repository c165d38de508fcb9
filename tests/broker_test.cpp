#include "ntco/broker/broker.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
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

DecisionContext ctx_with(std::string workload, double mbps,
                         double battery = 1.0) {
  DecisionContext ctx;
  ctx.workload = std::move(workload);
  ctx.uplink = DataRate::kilobits_per_second(
      static_cast<std::uint64_t>(std::llround(mbps * 1000.0)));
  ctx.rtt = Duration::millis(20);
  ctx.battery = battery;
  ctx.hour = 10;
  return ctx;
}

TEST(BrokerPlanCache, MissThenInsertThenHit) {
  PlanCache cache({});
  const auto ctx = ctx_with("app", 80.0);
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
  PlanCacheConfig cfg;
  cfg.capacity = 2;
  PlanCache cache(cfg);
  const TimePoint t0 = TimePoint::origin();
  // Three distinct workloads occupy three distinct keys.
  const auto a = ctx_with("a", 80.0);
  const auto b = ctx_with("b", 80.0);
  const auto c = ctx_with("c", 80.0);

  cache.insert(a, plan_with(Duration::seconds(1)), t0);
  cache.insert(b, plan_with(Duration::seconds(2)), t0);
  // Touch `a`: now `b` is the least recently used.
  ASSERT_NE(cache.lookup(a, t0), nullptr);
  cache.insert(c, plan_with(Duration::seconds(3)), t0);

  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.lookup(b, t0), nullptr);  // evicted as LRU
  EXPECT_NE(cache.lookup(a, t0), nullptr);  // survived (recently used)
  EXPECT_NE(cache.lookup(c, t0), nullptr);
}

TEST(BrokerPlanCache, TtlExpiresAtSimulatedTime) {
  PlanCacheConfig cfg;
  cfg.ttl = Duration::hours(1);
  PlanCache cache(cfg);
  const auto ctx = ctx_with("app", 80.0);
  const TimePoint t0 = TimePoint::origin();

  cache.insert(ctx, plan_with(Duration::seconds(1)), t0);
  EXPECT_NE(cache.lookup(ctx, t0 + Duration::minutes(59)), nullptr);
  EXPECT_EQ(cache.lookup(ctx, t0 + Duration::minutes(61)), nullptr);
  EXPECT_EQ(cache.stats().expiries, 1u);
  EXPECT_EQ(cache.size(), 0u);  // expired entries are erased on lookup
}

TEST(BrokerPlanCache, HysteresisReusesNeighbourWithinDrift) {
  PlanCache cache({});  // hysteresis 0.25
  const TimePoint t0 = TimePoint::origin();
  // Planned at 80 Mbps -> bucket round(log2 80) = 6.
  cache.insert(ctx_with("app", 80.0), plan_with(Duration::seconds(1)), t0);

  // 96 Mbps quantizes to neighbouring bucket 7, but the raw drift from the
  // planning context is 20% <= 25%: the plan is still good.
  EXPECT_NE(cache.lookup(ctx_with("app", 96.0), t0), nullptr);
  EXPECT_EQ(cache.stats().hysteresis_hits, 1u);

  // 160 Mbps also probes bucket 6 as a neighbour, but 100% drift is a
  // genuine regime change: replan.
  EXPECT_EQ(cache.lookup(ctx_with("app", 160.0), t0), nullptr);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(BrokerPlanCache, QuantizeClampsAndWindows) {
  const PlanCacheConfig cfg;  // 4 battery buckets, 6-hour windows
  auto ctx = ctx_with("app", 80.0, /*battery=*/1.0);
  ctx.hour = 23;
  const PlanKey k = quantize(ctx, cfg);
  EXPECT_EQ(k.battery_bucket, 3);  // full charge clamps into the top bucket
  EXPECT_EQ(k.window, 3);          // 23:00 is the last 6-hour window
  ctx.hour = 0;
  ctx.battery = 0.0;
  const PlanKey k2 = quantize(ctx, cfg);
  EXPECT_EQ(k2.battery_bucket, 0);
  EXPECT_EQ(k2.window, 0);
}

TEST(BrokerPlanCache, BatteryHysteresisIsItsOwnKnob) {
  // Regression: within_hysteresis used to judge the *absolute* battery
  // drift against the *relative* bw/rtt knob — at hysteresis=0.05 a 5%
  // bandwidth drift and a 5-percentage-point charge drift were silently
  // conflated. Battery must read battery_hysteresis, nothing else.
  PlanCacheConfig tight_links;
  tight_links.hysteresis = 0.05;          // links barely tolerate drift...
  tight_links.battery_hysteresis = 0.25;  // ...but charge has a wide band
  PlanCache cache(tight_links);
  const TimePoint t0 = TimePoint::origin();
  // Planned at battery 0.50 (bucket 2 of 4); identical link context.
  cache.insert(ctx_with("app", 80.0, /*battery=*/0.50),
               plan_with(Duration::seconds(1)), t0);

  // 0.30 quantizes to neighbouring bucket 1; the raw 0.20 charge drift is
  // within battery_hysteresis. Pre-fix this read the 0.05 link knob and
  // replanned.
  EXPECT_NE(cache.lookup(ctx_with("app", 80.0, /*battery=*/0.30), t0),
            nullptr);
  EXPECT_EQ(cache.stats().hysteresis_hits, 1u);

  // The converse conflation: a *loose* link knob must not excuse a charge
  // drift past the battery band.
  PlanCacheConfig tight_battery;
  tight_battery.hysteresis = 0.50;
  tight_battery.battery_hysteresis = 0.10;
  PlanCache cache2(tight_battery);
  cache2.insert(ctx_with("app", 80.0, /*battery=*/0.50),
                plan_with(Duration::seconds(1)), t0);
  EXPECT_EQ(cache2.lookup(ctx_with("app", 80.0, /*battery=*/0.30), t0),
            nullptr);
  EXPECT_EQ(cache2.stats().misses, 1u);

  // Boundary: a drift of exactly battery_hysteresis still reuses.
  PlanCacheConfig at_edge;
  at_edge.battery_hysteresis = 0.20;
  PlanCache cache3(at_edge);
  cache3.insert(ctx_with("app", 80.0, /*battery=*/0.50),
                plan_with(Duration::seconds(1)), t0);
  EXPECT_NE(cache3.lookup(ctx_with("app", 80.0, /*battery=*/0.30), t0),
            nullptr);
}

TEST(BrokerPlanCache, WindowWidthMustDivideTheDay) {
  // Regression: hours_per_window=5 used to quantize into a ragged final
  // window (window 4 spanning only 20:00-23:59) that skewed hit rates
  // across midnight; the config is now rejected by contract.
  PlanCacheConfig bad;
  bad.hours_per_window = 5;
  EXPECT_THROW(PlanCache{bad}, ContractViolation);
  EXPECT_THROW((void)quantize(ctx_with("app", 80.0), bad),
               ContractViolation);

  // Every divisor of 24 stays valid, and the window count is exact.
  for (const int hpw : {1, 2, 3, 4, 6, 8, 12, 24}) {
    PlanCacheConfig good;
    good.hours_per_window = hpw;
    PlanCache ok(good);
    auto ctx = ctx_with("app", 80.0);
    ctx.hour = 23;
    EXPECT_EQ(quantize(ctx, good).window, 23 / hpw);
  }
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
  BatchDispatcher d(sim, {}, lanes);
  const TimePoint at = TimePoint::at(Duration::minutes(10));
  for (JobId i = 0; i < 3; ++i) d.enqueue("g", at, i);
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
  BatchConfig cfg;
  cfg.max_batch = 2;
  BatchDispatcher d(sim, cfg, lanes);
  const TimePoint at = TimePoint::at(Duration::minutes(10));
  for (JobId i = 0; i < 3; ++i) d.enqueue("g", at, i);
  sim.run();
  // The first two sealed the batch, the third re-opened the key — but
  // nothing dispatched before the price-aligned instant.
  ASSERT_EQ(lanes.runs.size(), 3u);
  for (const auto& [job, t] : lanes.runs) EXPECT_EQ(t, Duration::minutes(10));
  EXPECT_EQ(d.stats().batches, 2u);
  EXPECT_EQ(d.stats().sealed, 1u);
  // The sealed batch's map node moved into its release handler inline.
}

TEST(BrokerBatch, LanesChainOnCompletion) {
  sim::Simulator sim;
  // Each job takes one simulated second; the lane's successor must not
  // start before it completed.
  LaneRecorder lanes(sim, Duration::seconds(1));
  BatchConfig cfg;
  cfg.lanes = 1;
  BatchDispatcher d(sim, cfg, lanes);
  const TimePoint at = TimePoint::at(Duration::minutes(10));
  for (JobId i = 0; i < 3; ++i) d.enqueue("g", at, i);
  sim.run();
  ASSERT_EQ(lanes.runs.size(), 3u);
  for (JobId i = 0; i < 3; ++i) {
    EXPECT_EQ(lanes.runs[i].first, i);  // enqueue order
    EXPECT_EQ(lanes.runs[i].second,
              Duration::minutes(10) +
                  Duration::seconds(static_cast<std::int64_t>(i)));
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
struct FleetOut {
  obs::MetricsRegistry metrics;
  obs::JsonlTraceWriter trace;
};

FleetOut run_fleet(std::size_t threads) {
  fleet::Replicator rep(99, threads);
  return rep.reduce(
      8, FleetOut{},
      [](fleet::ShardContext& ctx) {
        FleetOut out;
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
        fx.sim.run();
        return out;
      },
      [](FleetOut& acc, FleetOut&& shard, std::size_t) {
        acc.metrics.merge_from(shard.metrics);
        acc.trace.append_from(shard.trace);
      });
}

TEST(BrokerDeterminism, FleetMergeByteIdenticalAcrossThreads) {
  const FleetOut one = run_fleet(1);
  const FleetOut eight = run_fleet(8);
  EXPECT_FALSE(one.trace.str().empty());
  EXPECT_EQ(one.metrics.to_csv(), eight.metrics.to_csv());
  EXPECT_EQ(one.trace.str(), eight.trace.str());
}

}  // namespace
}  // namespace ntco::broker
