#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "ntco/app/task_graph.hpp"
#include "ntco/broker/admission.hpp"
#include "ntco/broker/batch_dispatcher.hpp"
#include "ntco/broker/plan_cache.hpp"
#include "ntco/broker/workload_ids.hpp"
#include "ntco/common/slab.hpp"
#include "ntco/common/units.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/partition/cost_model.hpp"
#include "ntco/partition/partitioners.hpp"
#include "ntco/sched/deferred_scheduler.hpp"
#include "ntco/serverless/platform.hpp"
#include "ntco/sim/simulator.hpp"
#include "ntco/stats/accumulator.hpp"

/// \file broker.hpp
/// The serving layer: one broker fronting OffloadController for a
/// population of users.
///
/// F5-style experiments recompute the full profile→partition→allocate
/// decision independently for every simulated user — the per-request
/// "compiled plan" redundancy that scalable offloading pipelines eliminate.
/// The broker closes that gap with three layers in front of the
/// controller:
///
///   serve() ─ AdmissionController ─ PlanCache ─ BatchDispatcher ─ core
///
/// 1. **Admission**: a token bucket bounds decision throughput; requests
///    with slack defer under overload, tight ones shed loudly.
/// 2. **Plan cache**: the decision context (workload, link buckets,
///    battery, price window) keys a cached DeploymentPlan; hits skip both
///    the planning work (modelled as simulated decision latency) and —
///    with the controller's fingerprint-idempotent deployment — the
///    redundant function deploys that previously cold-started per user.
/// 3. **Batch dispatch**: starts chosen by sched::DeferredScheduler are
///    aligned on a price-window grid and released as lane-chained batches,
///    so warm instances amortise across users, not just within one user.
///
/// Each in-flight serve is one record in a broker-owned ntco::Slab,
/// addressed by a RequestId = (generation << 32) | slot (the sim::EventId
/// idiom). The stages — admission (and its deferral retries), decision,
/// dispatch, execution, completion — are member functions taking that id,
/// so every simulator event and the controller's completion callback
/// capture just [this, id], and a batch lane chains through the id its
/// record holds.
/// A warm cache hit therefore allocates nothing in the broker: the plan is
/// a shared pointer to the immutable cache row and the record slot is
/// recycled (tests/allocation_count_test.cpp pins this). Nor does it touch
/// a string past one name lookup: decide() interns the workload's name
/// into a WorkloadId, and the cache key, the stage-2 key and the batch
/// lane key carry that id.
///
/// With `two_stage_enabled` the miss path splits in two (the
/// dynamic-vehicular pipeline): stage 1 answers every request immediately
/// — cache hit, or a cheap heuristic placement at `kHeuristicCost` — and
/// stage 2 resolves the exact solver asynchronously, publishing its plan
/// through the cache so the *next* request in the bucket gets the exact
/// answer. Fast-churn clients (short link residence) never wait multi-ms
/// solver latency; the solver's work drains in the background.
///
/// One broker serves one shard. Fleet runs give every shard its own
/// broker + platform + cache (see bench_f12_broker); merged artifacts are
/// byte-identical at any NTCO_THREADS because nothing here draws on wall
/// clock or unordered iteration.

namespace ntco::broker {

// Modeled decision latency, charged as simulated time before dispatch.
// These are assumptions, not measurements of the planning code.

/// Serving a plan from the cache.
inline constexpr Duration kHitCost = Duration::micros(5);
/// The stage-1 heuristic placement of the two-stage pipeline.
inline constexpr Duration kHeuristicCost = Duration::micros(40);
/// Computing a plan from scratch (profile → partition → allocate): a base
/// plus a per-component term.
inline constexpr Duration kPlanCostBase = Duration::millis(2);
inline constexpr Duration kPlanCostPerComponent = Duration::micros(300);

struct BrokerConfig {
  PlanCacheConfig cache;
  AdmissionConfig admission;
  sched::DeferredScheduler::Config defer;
  /// Disable to measure the no-cache baseline (every request replans).
  bool cache_enabled = true;
  /// Disable to dispatch each job individually at its planned start.
  bool batching_enabled = true;
  /// Two-stage decision pipeline (the dynamic-vehicular fast path): a
  /// cache miss is answered *immediately* by a cheap heuristic placement
  /// (cost `kHeuristicCost`), while the exact solver resolves
  /// asynchronously and refreshes the cache for subsequent requests in
  /// the same bucket. At most one exact solve is in flight per cache
  /// bucket. Requires cache_enabled (the cache is the stage-1 lookup and
  /// the stage-2 publication point).
  bool two_stage_enabled = false;
  /// Stage-1 heuristic partitioner; null uses the built-in all-remote
  /// rule (offload everything not pinned — O(components), no search).
  /// Must outlive the broker when set.
  const partition::Partitioner* heuristic_partitioner = nullptr;
};

/// One user's offload request. `app` must outlive the serve (the broker
/// executes against it); it doubles as estimate and truth. Under
/// `two_stage_enabled` it must also outlive the asynchronous exact
/// resolve — in practice, keep task graphs alive until the simulator
/// drains. serve() rejects a request whose fields fall outside the ranges
/// documented below (see RejectReason).
struct ServeRequest {
  const app::TaskGraph* app = nullptr;
  /// Delay tolerance: the job may finish any time within release + slack.
  /// Non-negative, and release + slack must fit in a TimePoint.
  Duration slack = Duration::hours(8);
  /// UE state of charge in [0, 1] (part of the decision context).
  double battery = 1.0;
  /// This user's link quality relative to the path's nominal rates; finite
  /// and positive.
  double bandwidth_scale = 1.0;
};

enum class ServeStatus : std::uint8_t {
  Completed,  ///< executed; report is the measured run
  Shed,       ///< rejected by admission (see shed_reason)
  Failed,     ///< executed but the run aborted (transfer loss)
  Rejected,   ///< malformed request, never admitted (see reject_reason)
};

/// The ServeRequest field that made serve() reject a request.
enum class RejectReason : std::uint8_t {
  None,
  App,             ///< null
  Battery,         ///< outside [0, 1], or NaN
  BandwidthScale,  ///< not finite and positive
  Slack,           ///< negative, or its deadline overflows TimePoint
};

/// Final word on one request, delivered to serve()'s callback.
struct ServeOutcome {
  ServeStatus status = ServeStatus::Completed;
  ShedReason shed_reason = ShedReason::None;
  RejectReason reject_reason = RejectReason::None;
  bool cache_hit = false;       ///< plan came from the cache
  /// Served by the stage-1 heuristic while the exact solve resolved
  /// asynchronously (two-stage pipeline only).
  bool heuristic_serve = false;
  Duration decision_latency;    ///< simulated planning/serving time
  TimePoint released;           ///< when serve() was called
  TimePoint finished;           ///< when the outcome fired
  std::uint64_t deferrals = 0;  ///< admission retries this request took
  core::ExecutionReport report;  ///< valid unless Shed or Rejected
};

/// Once the simulator drains, requests = completed + failed + shed +
/// rejected.
struct BrokerStats {
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t rejected = 0;
};

/// Two-stage pipeline accounting (zero unless two_stage_enabled).
struct TwoStageStats {
  std::uint64_t fast_serves = 0;  ///< misses answered by the heuristic
  std::uint64_t resolves = 0;     ///< asynchronous exact solves completed
  std::uint64_t agreements = 0;   ///< exact placement == heuristic placement
};

/// Population-scale serving facade over one OffloadController.
class Broker : private BatchDispatcher::Runner {
 public:
  /// All references must outlive the broker. `partitioner` is shared by
  /// every planning request.
  Broker(sim::Simulator& sim, serverless::Platform& platform,
         core::OffloadController& controller,
         const partition::Partitioner& partitioner, BrokerConfig cfg);

  Broker(const Broker&) = delete;
  Broker& operator=(const Broker&) = delete;

  /// Serves one request. The outcome callback fires exactly once — inside
  /// this call for a malformed request (ServeStatus::Rejected), at shed
  /// time, or when the (possibly deferred, batched) execution completes.
  /// Drive the simulator (sim.run()) to make progress.
  void serve(ServeRequest req,
             std::function<void(const ServeOutcome&)> done = {});

  [[nodiscard]] const BrokerStats& stats() const { return stats_; }
  [[nodiscard]] const TwoStageStats& twostage() const { return twostage_; }
  [[nodiscard]] const PlanCache& cache() const { return cache_; }
  [[nodiscard]] const AdmissionController& admission() const {
    return admission_;
  }
  [[nodiscard]] const BatchDispatcher& dispatcher() const {
    return dispatcher_;
  }
  [[nodiscard]] const BrokerConfig& config() const { return cfg_; }

  /// Attaches observability to the broker and its layers. `trace` receives
  /// "broker.*" events; `metrics` hosts the "broker.*" summaries. Either
  /// may be null. Stable names are listed in DESIGN.md ("Observability").
  void attach_observer(obs::TraceSink* trace, obs::MetricsRegistry* metrics);

  /// Adds the "broker.*" counters to `metrics`, read from stats(),
  /// twostage() and the stats of cache(), admission() and dispatcher();
  /// "broker.rejected" only when a request was rejected.
  void publish(obs::MetricsRegistry& metrics) const;

 private:
  /// Names an in-flight serve: the SlabId of its record.
  using RequestId = BatchDispatcher::JobId;

  /// One in-flight serve, from serve() until its outcome fires.
  struct Request {
    ServeRequest req;
    std::function<void(const ServeOutcome&)> done;
    SharedPlan plan;
    /// The workload's interned name: its batch lane key.
    WorkloadId workload = 0;
    TimePoint released;
    std::uint64_t deferrals = 0;
    Duration decision;
    bool hit = false;
    bool heuristic = false;
    /// This request's successor in its batch lane, started when it
    /// completes.
    RequestId next_in_lane = kNoSlabId;
  };

  /// Stage-2 record: the inputs of one bucket's in-flight exact solve.
  struct Resolve {
    DecisionContext ctx;
    const app::TaskGraph* app = nullptr;
    partition::Environment env;
    partition::Partition heuristic;
  };
  using Resolves = std::map<PlanKey, Resolve>;

  /// Releases the record and delivers `out` to its callback.
  void finish(RequestId id, const ServeOutcome& out);
  /// Completes a malformed request at once, without a record.
  void reject(RejectReason why,
              const std::function<void(const ServeOutcome&)>& done);

  /// (Re-)attempts admission; deferred requests loop back here.
  void admit(RequestId id, bool is_retry);
  /// Past admission: cache lookup or fresh plan, then the decision delay.
  void decide(RequestId id);
  /// After the decision delay: the planned start, batched or direct.
  void dispatch(RequestId id);
  /// BatchDispatcher::Runner: executes the plan.
  void start(RequestId id) override;
  /// BatchDispatcher::Runner: `next` starts when `prev` completes.
  void follow(RequestId prev, RequestId next) override;
  /// Execution done: stats, the lane successor, then the outcome.
  void complete(RequestId id, const core::ExecutionReport& report);

  /// Rough pre-planning duration estimate used by admission: service time
  /// at the reference memory *plus* the wireless leg at the transport's
  /// nominal spec rates scaled by this user's link quality. Checking the
  /// deadline jointly against transfer and service is what gives hard-
  /// deadline (vehicular) populations real shed pressure — a short link
  /// residence cannot absorb a transfer-dominated job no matter how fast
  /// the cloud is.
  [[nodiscard]] Duration admission_estimate(const app::TaskGraph& g,
                                            double bandwidth_scale) const;

  /// Kicks off the asynchronous stage-2 exact solve for `ctx`'s bucket
  /// unless one is already in flight there.
  void schedule_exact_resolve(const DecisionContext& ctx,
                              const app::TaskGraph& g,
                              const partition::Environment& env,
                              const partition::Partition& heuristic);
  /// Runs the exact solve recorded at `it`, publishing it to the cache.
  void resolve(Resolves::iterator it);
  /// Stage-1 heuristic partitioner (config override or built-in rule).
  [[nodiscard]] const partition::Partitioner& stage1_partitioner() const {
    return cfg_.heuristic_partitioner != nullptr ? *cfg_.heuristic_partitioner
                                                 : all_remote_;
  }

  struct Instruments {
    stats::Accumulator* decision_us = nullptr;
    stats::Accumulator* job_cost_usd = nullptr;
    stats::Accumulator* completion_s = nullptr;
  };

  sim::Simulator& sim_;
  serverless::Platform& platform_;
  core::OffloadController& controller_;
  const partition::Partitioner& partitioner_;
  BrokerConfig cfg_;
  sched::DeferredScheduler scheduler_;
  PlanCache cache_;
  AdmissionController admission_;
  BatchDispatcher dispatcher_;
  partition::RemoteAllPartitioner all_remote_;
  /// In-flight serves, one record each.
  Slab<Request> requests_;
  /// Workload names seen so far, interned in first-seen order.
  WorkloadIds workloads_;
  /// Buckets with an exact solve in flight (stage-2 dedup): a burst of
  /// same-bucket misses triggers one solver run, not a storm. std::map
  /// for deterministic iteration.
  Resolves resolving_;
  BrokerStats stats_;
  TwoStageStats twostage_;
  obs::TraceSink* trace_ = nullptr;
  Instruments m_;
};

}  // namespace ntco::broker
