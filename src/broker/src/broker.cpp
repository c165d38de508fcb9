#include "ntco/broker/broker.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "ntco/common/contracts.hpp"
#include "ntco/net/transport.hpp"
#include "ntco/partition/cost_model.hpp"

namespace ntco::broker {
namespace {

/// Modeled latency of an exact plan for `g`.
Duration exact_plan_cost(const app::TaskGraph& g) {
  return kPlanCostBase +
         kPlanCostPerComponent * static_cast<double>(g.component_count());
}

/// The first field of `req`, served at `now`, outside its documented
/// range. Written so that a NaN fails every check it reaches.
RejectReason validate(const ServeRequest& req, TimePoint now) {
  if (req.app == nullptr) return RejectReason::App;
  if (!(req.battery >= 0.0 && req.battery <= 1.0))
    return RejectReason::Battery;
  if (!(req.bandwidth_scale > 0.0 && std::isfinite(req.bandwidth_scale)))
    return RejectReason::BandwidthScale;
  // The deadline now + slack must be a TimePoint: a larger slack would
  // overflow it (now is never before the origin).
  if (req.slack.is_negative() ||
      req.slack > Duration::max() - now.since_origin())
    return RejectReason::Slack;
  return RejectReason::None;
}

/// The field name a rejection trace names.
std::string_view field_name(RejectReason why) {
  switch (why) {
    case RejectReason::None: break;
    case RejectReason::App: return "app";
    case RejectReason::Battery: return "battery";
    case RejectReason::BandwidthScale: return "bandwidth_scale";
    case RejectReason::Slack: return "slack";
  }
  return "none";
}

}  // namespace

Broker::Broker(sim::Simulator& sim, serverless::Platform& platform,
               core::OffloadController& controller,
               const partition::Partitioner& partitioner, BrokerConfig cfg)
    : sim_(sim),
      platform_(platform),
      controller_(controller),
      partitioner_(partitioner),
      cfg_(std::move(cfg)),
      scheduler_(platform, cfg_.defer),
      cache_(cfg_.cache),
      admission_(cfg_.admission),
      dispatcher_(sim, *this) {
  // The cache is both the stage-1 lookup and the stage-2 publication
  // point; a two-stage broker without it would resolve into the void.
  NTCO_EXPECTS(!cfg_.two_stage_enabled || cfg_.cache_enabled);
}

void Broker::attach_observer(obs::TraceSink* trace,
                             obs::MetricsRegistry* metrics) {
  trace_ = trace;
  m_ = {};
  if (metrics != nullptr) {
    m_.decision_us = &metrics->summary("broker.decision_us");
    m_.job_cost_usd = &metrics->summary("broker.job_cost_usd");
    m_.completion_s = &metrics->summary("broker.completion_s");
  }
  cache_.set_trace(trace, &workloads_);
  admission_.set_trace(trace);
  dispatcher_.set_trace(trace, &workloads_);
}

void Broker::publish(obs::MetricsRegistry& metrics) const {
  metrics.counter("broker.requests").add(stats_.requests);
  metrics.counter("broker.completed").add(stats_.completed);
  metrics.counter("broker.failed").add(stats_.failed);
  if (stats_.rejected > 0)
    metrics.counter("broker.rejected").add(stats_.rejected);
  metrics.counter("broker.twostage.fast_serves").add(twostage_.fast_serves);
  metrics.counter("broker.twostage.resolves").add(twostage_.resolves);
  metrics.counter("broker.twostage.agreements").add(twostage_.agreements);
  const PlanCacheStats& cache = cache_.stats();
  metrics.counter("broker.cache.hits").add(cache.hits);
  metrics.counter("broker.cache.hysteresis_hits").add(cache.hysteresis_hits);
  metrics.counter("broker.cache.misses").add(cache.misses);
  metrics.counter("broker.cache.evictions").add(cache.evictions);
  metrics.counter("broker.cache.expiries").add(cache.expiries);
  const AdmissionStats& admission = admission_.stats();
  metrics.counter("broker.admission.admitted").add(admission.admitted);
  metrics.counter("broker.admission.deferrals").add(admission.deferrals);
  metrics.counter("broker.admission.shed").add(admission.shed);
  const BatchStats& batch = dispatcher_.stats();
  metrics.counter("broker.batch.batches").add(batch.batches);
  metrics.counter("broker.batch.jobs").add(batch.jobs_dispatched);
  metrics.counter("broker.batch.sealed").add(batch.sealed);
}

Duration Broker::admission_estimate(const app::TaskGraph& g,
                                    double bandwidth_scale) const {
  // Coarse on purpose: admission runs *before* planning, so all it can
  // afford is "all the work, remotely, at the reference memory" plus "all
  // boundary state across the radio once". The wireless leg reads the
  // transport's *nominal* spec — the stateful timing methods commit
  // transfers (consume jitter randomness, occupy shared capacity), which
  // an estimate must never do.
  const DataSize ref = platform_.quantize_memory(core::kReferenceMemory);
  const Duration service = platform_.exec_time(ref, g.total_work());
  const net::PathSpec& spec = controller_.transport().spec();
  Duration transfer = spec.up.latency + spec.down.latency;
  const DataRate scaled = spec.up.rate * bandwidth_scale;
  if (scaled > DataRate::bits_per_second(0))
    transfer = transfer + g.total_flow_bytes() / scaled;
  return transfer + service;
}

void Broker::serve(ServeRequest req,
                   std::function<void(const ServeOutcome&)> done) {
  ++stats_.requests;
  // A malformed request costs itself, never the run: it completes here
  // instead of tripping a contract inside a simulator event.
  if (const RejectReason why = validate(req, sim_.now());
      why != RejectReason::None) {
    reject(why, done);
    return;
  }
  const RequestId id = requests_.acquire();
  Request& r = requests_[id];
  r.req = req;
  r.done = std::move(done);
  r.released = sim_.now();
  admit(id, /*is_retry=*/false);
}

void Broker::reject(RejectReason why,
                    const std::function<void(const ServeOutcome&)>& done) {
  const TimePoint now = sim_.now();
  ++stats_.rejected;
  if (trace_)
    obs::emit(trace_, now, "broker.request_rejected",
              {{"field", field_name(why)}});
  ServeOutcome out;
  out.status = ServeStatus::Rejected;
  out.reject_reason = why;
  out.released = now;
  out.finished = now;
  if (done) done(out);
}

void Broker::finish(RequestId id, const ServeOutcome& out) {
  Request& r = requests_[id];
  const std::function<void(const ServeOutcome&)> done = std::move(r.done);
  // Drop the plan reference and the callback before the slot is reused;
  // the id goes stale before the callback can serve anew.
  r = Request{};
  requests_.release(id);
  if (done) done(out);
}

void Broker::admit(RequestId id, bool is_retry) {
  Request& r = requests_[id];
  if (is_retry) admission_.retry_resolved();
  const TimePoint now = sim_.now();
  const TimePoint deadline = r.released + r.req.slack;
  const AdmissionDecision d = admission_.decide(
      now, deadline, admission_estimate(*r.req.app, r.req.bandwidth_scale));

  switch (d.verdict) {
    case AdmissionVerdict::Admitted:
      decide(id);
      return;
    case AdmissionVerdict::Deferred:
      ++r.deferrals;
      sim_.schedule_at(d.retry_at, [this, id] { admit(id, /*is_retry=*/true); });
      return;
    case AdmissionVerdict::Shed: {
      ++stats_.shed;
      ServeOutcome out;
      out.status = ServeStatus::Shed;
      out.shed_reason = d.reason;
      out.released = r.released;
      out.finished = now;
      out.deferrals = r.deferrals;
      finish(id, out);
      return;
    }
  }
}

void Broker::decide(RequestId id) {
  Request& r = requests_[id];
  const app::TaskGraph& g = *r.req.app;
  const TimePoint now = sim_.now();

  // The user's link quality perturbs the nominal link figures; the
  // perturbed figures are both what the cache key quantizes and, on a
  // miss, what the partitioner sees.
  const net::PathSpec& spec = controller_.transport().spec();
  DecisionContext ctx;
  ctx.workload = workloads_.intern(g.name());
  r.workload = ctx.workload;
  ctx.uplink = spec.up.rate * r.req.bandwidth_scale;
  ctx.rtt = spec.up.latency + spec.down.latency;
  ctx.battery = r.req.battery;
  ctx.hour = hour_of_day(now);

  if (cfg_.cache_enabled) {
    r.plan = cache_.lookup(ctx, now);
    r.hit = r.plan != nullptr;
  }
  if (r.plan == nullptr) {
    partition::Environment env = controller_.make_environment(g);
    env.uplink = env.uplink * r.req.bandwidth_scale;
    env.downlink = env.downlink * r.req.bandwidth_scale;
    if (cfg_.two_stage_enabled) {
      // Stage 1: answer the miss *now* with the cheap heuristic placement
      // and let the exact solver catch up in the background. The
      // heuristic plan is deliberately not cached — the cache only ever
      // publishes exact plans, so a bucket's quality ratchets up, never
      // down.
      r.plan = std::make_shared<const core::DeploymentPlan>(
          controller_.prepare(g, stage1_partitioner(), env));
      r.heuristic = true;
      ++twostage_.fast_serves;
      if (trace_)
        obs::emit(trace_, now, "broker.twostage.fast_serve",
                  {{"workload", std::string_view(g.name())}});
      schedule_exact_resolve(ctx, g, env, r.plan->partition);
    } else {
      r.plan = std::make_shared<const core::DeploymentPlan>(
          controller_.prepare(g, partitioner_, env));
      if (cfg_.cache_enabled) cache_.insert(ctx, r.plan, now);
    }
  }

  r.decision = r.hit         ? kHitCost
               : r.heuristic ? kHeuristicCost
                             : exact_plan_cost(g);
  if (m_.decision_us)
    m_.decision_us->add(static_cast<double>(r.decision.count_micros()));

  // The decision itself takes simulated time; dispatch resumes after it.
  sim_.schedule_after(r.decision, [this, id] { dispatch(id); });
}

void Broker::dispatch(RequestId id) {
  const Request& r = requests_[id];
  const TimePoint resumed = sim_.now();
  const TimePoint deadline = r.released + r.req.slack;
  const Duration slack_left =
      deadline > resumed ? deadline - resumed : Duration::zero();
  const Duration est = r.plan->predicted.latency;
  const TimePoint planned = scheduler_.plan_start(resumed, slack_left, est);

  if (cfg_.batching_enabled) {
    // Align the start up to the batch grid so compatible users flush
    // together, but never past the latest deadline-safe start.
    const TimePoint latest = scheduler_.latest_start(resumed, slack_left, est);
    const std::int64_t grid = kBatchInterval.count_micros();
    const std::int64_t s = planned.since_origin().count_micros();
    TimePoint flush_at =
        TimePoint::at(Duration::micros((s + grid - 1) / grid * grid));
    if (flush_at > latest) flush_at = latest;
    if (flush_at < planned) flush_at = planned;
    dispatcher_.enqueue(r.workload, flush_at, id);
  } else {
    sim_.schedule_at(std::max(planned, resumed), [this, id] { start(id); });
  }
}

void Broker::start(RequestId id) {
  const Request& r = requests_[id];
  controller_.execute_async(
      *r.plan, *r.req.app,
      [this, id](const core::ExecutionReport& report) {
        complete(id, report);
      });
}

void Broker::follow(RequestId prev, RequestId next) {
  requests_[prev].next_in_lane = next;
}

void Broker::complete(RequestId id, const core::ExecutionReport& report) {
  const Request& r = requests_[id];
  ServeOutcome out;
  out.status = report.failed ? ServeStatus::Failed : ServeStatus::Completed;
  out.cache_hit = r.hit;
  out.heuristic_serve = r.heuristic;
  out.decision_latency = r.decision;
  out.released = r.released;
  out.finished = sim_.now();
  out.deferrals = r.deferrals;
  out.report = report;
  if (report.failed)
    ++stats_.failed;
  else
    ++stats_.completed;
  if (m_.job_cost_usd) m_.job_cost_usd->add(report.cloud_cost.to_usd());
  if (m_.completion_s)
    m_.completion_s->add((out.finished - r.released).to_seconds());
  // The lane's next job starts before this outcome is delivered.
  if (r.next_in_lane != kNoSlabId) start(r.next_in_lane);
  finish(id, out);
}

void Broker::schedule_exact_resolve(const DecisionContext& ctx,
                                    const app::TaskGraph& g,
                                    const partition::Environment& env,
                                    const partition::Partition& heuristic) {
  // One exact solve in flight per bucket: a burst of same-bucket misses
  // (the vehicular regime) triggers one solver run, not a storm.
  const auto [it, fresh] = resolving_.try_emplace(quantize(ctx));
  if (!fresh) return;
  it->second = Resolve{ctx, &g, env, heuristic};

  // Map iterators stay valid until erase, and only resolve() erases.
  sim_.schedule_after(exact_plan_cost(g), [this, it = it] { resolve(it); });
}

void Broker::resolve(Resolves::iterator it) {
  const Resolve job = std::move(it->second);
  resolving_.erase(it);
  const TimePoint now = sim_.now();
  core::DeploymentPlan exact =
      controller_.prepare(*job.app, partitioner_, job.env);
  const bool agreed = exact.partition == job.heuristic;
  ++twostage_.resolves;
  if (agreed) ++twostage_.agreements;
  if (trace_)
    obs::emit(trace_, now, "broker.twostage.resolve",
              {{"workload", workloads_.name(job.ctx.workload)},
               {"agreed", agreed}});
  cache_.insert(job.ctx,
                std::make_shared<const core::DeploymentPlan>(std::move(exact)),
                now);
}

}  // namespace ntco::broker
