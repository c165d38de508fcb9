#include "ntco/broker/broker.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "ntco/common/contracts.hpp"
#include "ntco/net/transport.hpp"
#include "ntco/partition/cost_model.hpp"

namespace ntco::broker {

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
      dispatcher_(sim, cfg_.batch, *this) {
  // The cache is both the stage-1 lookup and the stage-2 publication
  // point; a two-stage broker without it would resolve into the void.
  NTCO_EXPECTS(!cfg_.two_stage_enabled || cfg_.cache_enabled);
}

void Broker::attach_observer(obs::TraceSink* trace,
                             obs::MetricsRegistry* metrics) {
  trace_ = trace;
  m_ = {};
  if (metrics != nullptr) {
    m_.requests = &metrics->counter("broker.requests");
    m_.completed = &metrics->counter("broker.completed");
    m_.failed = &metrics->counter("broker.failed");
    m_.fast_serves = &metrics->counter("broker.twostage.fast_serves");
    m_.resolves = &metrics->counter("broker.twostage.resolves");
    m_.agreements = &metrics->counter("broker.twostage.agreements");
    m_.decision_us = &metrics->summary("broker.decision_us");
    m_.job_cost_usd = &metrics->summary("broker.job_cost_usd");
    m_.completion_s = &metrics->summary("broker.completion_s");
  }
  cache_.attach_observer(trace, metrics);
  admission_.attach_observer(trace, metrics);
  dispatcher_.attach_observer(trace, metrics);
}

Duration Broker::admission_estimate(const app::TaskGraph& g,
                                    double bandwidth_scale) const {
  // Coarse on purpose: admission runs *before* planning, so all it can
  // afford is "all the work, remotely, at the reference memory" plus "all
  // boundary state across the radio once". The wireless leg reads the
  // transport's *nominal* spec — the stateful timing methods commit
  // transfers (consume jitter randomness, occupy shared capacity), which
  // an estimate must never do.
  const DataSize ref =
      platform_.quantize_memory(controller_.config().reference_memory);
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
  NTCO_EXPECTS(req.app != nullptr);
  NTCO_EXPECTS(req.battery >= 0.0 && req.battery <= 1.0);
  NTCO_EXPECTS(req.bandwidth_scale > 0.0);
  NTCO_EXPECTS(!req.slack.is_negative());
  ++stats_.requests;
  if (m_.requests) m_.requests->add();
  const RequestId id = acquire();
  Request& r = record(id);
  r.req = req;
  r.done = std::move(done);
  r.released = sim_.now();
  admit(id, /*is_retry=*/false);
}

Broker::RequestId Broker::acquire() {
  std::uint32_t slot = free_head_;
  if (slot != kNoSlot) {
    free_head_ = requests_[slot].next_free;
  } else {
    NTCO_EXPECTS(requests_.size() < kNoSlot);
    slot = static_cast<std::uint32_t>(requests_.size());
    requests_.emplace_back();
  }
  return (static_cast<RequestId>(requests_[slot].generation) << 32) | slot;
}

Broker::Request& Broker::record(RequestId id) {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  NTCO_EXPECTS(slot < requests_.size());
  Request& r = requests_[slot];
  NTCO_EXPECTS(r.generation == static_cast<std::uint32_t>(id >> 32));
  return r;
}

void Broker::finish(RequestId id, const ServeOutcome& out) {
  const auto slot = static_cast<std::uint32_t>(id & 0xFFFFFFFFu);
  Request& r = record(id);
  const std::function<void(const ServeOutcome&)> done = std::move(r.done);
  // Reset for the next occupant; the slot's generation moves on, so this
  // id goes stale before the callback can serve anew.
  const std::uint32_t generation = r.generation + 1;
  r = Request{};
  r.generation = generation;
  r.next_free = free_head_;
  free_head_ = slot;
  if (done) done(out);
}

void Broker::admit(RequestId id, bool is_retry) {
  Request& r = record(id);
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
  Request& r = record(id);
  const app::TaskGraph& g = *r.req.app;
  const TimePoint now = sim_.now();

  // The user's link quality perturbs the nominal planning environment;
  // that perturbed environment is both what the partitioner sees and what
  // the cache key quantizes.
  partition::Environment env = controller_.make_environment(g);
  env.uplink = env.uplink * r.req.bandwidth_scale;
  env.downlink = env.downlink * r.req.bandwidth_scale;

  DecisionContext ctx;
  ctx.workload = g.name();
  ctx.uplink = env.uplink;
  ctx.rtt = env.uplink_latency + env.downlink_latency;
  ctx.battery = r.req.battery;
  ctx.hour = static_cast<int>(
      (now.since_origin().count_micros() / 3'600'000'000LL) % 24);

  if (cfg_.cache_enabled) {
    r.plan = cache_.lookup(ctx, now);
    r.hit = r.plan != nullptr;
  }
  if (r.plan == nullptr && cfg_.two_stage_enabled) {
    // Stage 1: answer the miss *now* with the cheap heuristic placement
    // and let the exact solver catch up in the background. The heuristic
    // plan is deliberately not cached — the cache only ever publishes
    // exact plans, so a bucket's quality ratchets up, never down.
    r.plan = std::make_shared<const core::DeploymentPlan>(
        controller_.prepare(g, stage1_partitioner(), env));
    r.heuristic = true;
    ++twostage_.fast_serves;
    if (m_.fast_serves) m_.fast_serves->add();
    if (trace_)
      obs::emit(trace_, now, "broker.twostage.fast_serve",
                {{"workload", std::string_view(g.name())}});
    schedule_exact_resolve(ctx, g, env, r.plan->partition);
  }
  if (r.plan == nullptr) {
    r.plan = std::make_shared<const core::DeploymentPlan>(
        controller_.prepare(g, partitioner_, env));
    if (cfg_.cache_enabled) cache_.insert(ctx, r.plan, now);
  }

  r.decision = r.hit ? cfg_.hit_cost
               : r.heuristic
                   ? cfg_.heuristic_cost
                   : cfg_.plan_cost_base +
                         cfg_.plan_cost_per_component *
                             static_cast<double>(g.component_count());
  if (m_.decision_us)
    m_.decision_us->add(static_cast<double>(r.decision.count_micros()));

  // The decision itself takes simulated time; dispatch resumes after it.
  sim_.schedule_after(r.decision, [this, id] { dispatch(id); });
}

void Broker::dispatch(RequestId id) {
  const Request& r = record(id);
  const app::TaskGraph& truth = *r.req.app;
  const TimePoint resumed = sim_.now();
  const TimePoint deadline = r.released + r.req.slack;
  const Duration slack_left =
      deadline > resumed ? deadline - resumed : Duration::zero();
  const sched::DeferredJob job{truth.name(), truth.total_work(), slack_left};
  const Duration est = r.plan->predicted.latency;
  const TimePoint planned = scheduler_.plan_start(resumed, job, est);

  if (cfg_.batching_enabled) {
    // Align the start up to the batch grid so compatible users flush
    // together, but never past the latest deadline-safe start.
    const TimePoint latest = scheduler_.latest_start(resumed, job, est);
    const std::int64_t grid = cfg_.batch.interval.count_micros();
    const std::int64_t s = planned.since_origin().count_micros();
    TimePoint flush_at =
        TimePoint::at(Duration::micros((s + grid - 1) / grid * grid));
    if (flush_at > latest) flush_at = latest;
    if (flush_at < planned) flush_at = planned;
    dispatcher_.enqueue(truth.name(), flush_at, id);
  } else {
    sim_.schedule_at(std::max(planned, resumed), [this, id] { start(id); });
  }
}

void Broker::start(RequestId id) {
  const Request& r = record(id);
  controller_.execute_async(
      *r.plan, *r.req.app,
      [this, id](const core::ExecutionReport& report) {
        complete(id, report);
      });
}

void Broker::follow(RequestId prev, RequestId next) {
  record(prev).next_in_lane = next;
}

void Broker::complete(RequestId id, const core::ExecutionReport& report) {
  const Request& r = record(id);
  ServeOutcome out;
  out.status = report.failed ? ServeStatus::Failed : ServeStatus::Completed;
  out.cache_hit = r.hit;
  out.heuristic_serve = r.heuristic;
  out.decision_latency = r.decision;
  out.released = r.released;
  out.finished = sim_.now();
  out.deferrals = r.deferrals;
  out.report = report;
  if (report.failed) {
    ++stats_.failed;
    if (m_.failed) m_.failed->add();
  } else {
    ++stats_.completed;
    if (m_.completed) m_.completed->add();
  }
  if (m_.job_cost_usd) m_.job_cost_usd->add(report.cloud_cost.to_usd());
  if (m_.completion_s)
    m_.completion_s->add((out.finished - r.released).to_seconds());
  // The lane's next job starts before this outcome is delivered.
  if (r.next_in_lane != kNoRequest) start(r.next_in_lane);
  finish(id, out);
}

void Broker::schedule_exact_resolve(const DecisionContext& ctx,
                                    const app::TaskGraph& g,
                                    const partition::Environment& env,
                                    const partition::Partition& heuristic) {
  // One exact solve in flight per bucket: a burst of same-bucket misses
  // (the vehicular regime) triggers one solver run, not a storm.
  const auto [it, fresh] = resolving_.try_emplace(quantize(ctx, cfg_.cache));
  if (!fresh) return;
  it->second = Resolve{ctx, &g, env, heuristic};

  // Measured ring pressure stretches the resolve: saturated rings delay
  // refinement (stage 2), never the fast answer (stage 1).
  const double pressure =
      backpressure_ == nullptr
          ? 0.0
          : std::clamp(backpressure_->pressure(), 0.0, 1.0);
  const Duration solve =
      cfg_.plan_cost_base +
      cfg_.plan_cost_per_component * static_cast<double>(g.component_count());
  const Duration latency = solve * (1.0 + pressure);

  // Map iterators stay valid until erase, and only resolve() erases.
  sim_.schedule_after(latency, [this, it = it] { resolve(it); });
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
  if (m_.resolves) m_.resolves->add();
  if (agreed && m_.agreements) m_.agreements->add();
  if (trace_)
    obs::emit(trace_, now, "broker.twostage.resolve",
              {{"workload", std::string_view(job.ctx.workload)},
               {"agreed", agreed}});
  cache_.insert(job.ctx,
                std::make_shared<const core::DeploymentPlan>(std::move(exact)),
                now);
}

}  // namespace ntco::broker
