#include "ntco/sched/deferred_scheduler.hpp"

#include <cstdint>
#include <utility>

#include "ntco/sched/start_scan.hpp"

namespace ntco::sched {

TimePoint DeferredScheduler::latest_start(TimePoint release, Duration slack,
                                          Duration est_duration) const {
  return latest_admissible_start(release, slack, est_duration);
}

TimePoint DeferredScheduler::plan_start(TimePoint release, Duration slack,
                                        Duration est_duration) const {
  if (cfg_.policy == Policy::Immediate) return release;

  NTCO_EXPECTS(release >= TimePoint::origin());
  const TimePoint latest = latest_start(release, slack, est_duration);

  // The cheapest tariff on the kSearchStep grid from `release` up to
  // `latest`; among equal tariffs the earliest start (finish as soon as
  // the price allows).
  const CheapestStart cheapest = cheapest_hourly_start(
      release, latest, kSearchStep,
      [this](TimePoint t) { return platform_.price_multiplier(t); });

  if (cfg_.policy == Policy::Batched && cheapest.start > release) {
    // Defer slightly further to the next batch boundary so concurrent jobs
    // share warm instances — but never beyond the latest admissible start.
    const auto interval = kBatchInterval.count_micros();
    const auto offset = cheapest.start.since_origin().count_micros();
    const auto aligned = (offset + interval - 1) / interval * interval;
    const TimePoint batched = TimePoint::at(Duration::micros(aligned));
    if (batched <= latest &&
        platform_.price_multiplier(batched) <= cheapest.value + 1e-12)
      return batched;
  }
  return cheapest.start;
}

DeferredExecutor::DeferredExecutor(sim::Simulator& sim,
                                   serverless::Platform& platform,
                                   serverless::FunctionId fn,
                                   DeferredScheduler scheduler)
    : sim_(sim), platform_(platform), fn_(fn), scheduler_(std::move(scheduler)) {}

void DeferredExecutor::attach_observer(obs::TraceSink* trace,
                                       obs::MetricsRegistry* metrics) {
  trace_ = trace;
  m_ = {};
  if (metrics != nullptr) {
    m_.completion_latency_s = &metrics->summary("sched.completion_latency_s");
    m_.deferral_s = &metrics->summary("sched.deferral_s");
    m_.job_cost_usd = &metrics->summary("sched.job_cost_usd");
  }
}

void DeferredExecutor::publish(obs::MetricsRegistry& metrics) const {
  metrics.counter("sched.jobs").add(report_.jobs);
  metrics.counter("sched.deadline_misses").add(report_.deadline_misses);
  metrics.counter("sched.spot_attempts").add(report_.spot_attempts);
  metrics.counter("sched.spot_preemptions").add(report_.spot_preemptions);
  metrics.counter("sched.fallbacks").add(report_.fallbacks);
  if (report_.rejected > 0)
    metrics.counter("sched.rejected").add(report_.rejected);
}

void DeferredExecutor::submit(DeferredJob job) {
  const TimePoint released = sim_.now();
  // A malformed job costs itself, never the run: it is refused here
  // instead of tripping latest_start()'s contract inside a simulator event
  // (a negative slack) or overflowing its deadline released + slack (a
  // slack past TimePoint's range).
  if (job.slack.is_negative() ||
      job.slack > Duration::max() - released.since_origin()) {
    reject(job);
    return;
  }
  const auto& spec = platform_.spec(fn_);
  const Duration est =
      platform_.exec_time(spec.memory, job.work, spec.parallel_fraction);
  const TimePoint start = scheduler_.plan_start(released, job.slack, est);
  const TimePoint deadline = released + job.slack;

  if (trace_)
    obs::emit(trace_, released, "sched.job.planned",
              {{"job", std::string_view(job.name)},
               {"start", start.since_origin()},
               {"deadline", deadline.since_origin()},
               {"est", est}});
  if (m_.deferral_s) m_.deferral_s->add((start - released).to_seconds());

  const SlabId id = jobs_.acquire();
  Job& j = jobs_[id];
  j.job = std::move(job);
  j.released = released;
  j.deadline = deadline;
  j.est = est;
  j.accrued = Money::zero();
  j.spotted = false;
  sim_.schedule_at(start, [this, id] { attempt(id); });
}

void DeferredExecutor::attempt(SlabId id) {
  Job& j = jobs_[id];
  // Spot is only safe while we could still absorb a preempted attempt and
  // an on-demand redo within the remaining slack.
  const bool use_spot =
      scheduler_.config().tier_policy == TierPolicy::SpotWithFallback &&
      sim_.now() + j.est * DeferredScheduler::kFallbackSafety <= j.deadline;
  if (use_spot) ++report_.spot_attempts;
  if (j.spotted && !use_spot) {
    ++report_.fallbacks;
    if (trace_)
      obs::emit(trace_, sim_.now(), "sched.job.tier_fallback",
                {{"job", std::string_view(j.job.name)}});
  }

  platform_.invoke(
      fn_, j.job.work,
      [this, id](const serverless::InvocationResult& r) {
        attempt_done(id, r);
      },
      use_spot ? serverless::Tier::Spot : serverless::Tier::OnDemand);
}

void DeferredExecutor::attempt_done(SlabId id,
                                    const serverless::InvocationResult& r) {
  if (!r.preempted) {
    complete(id, r);
    return;
  }
  Job& j = jobs_[id];
  ++report_.spot_preemptions;
  if (trace_)
    obs::emit(trace_, sim_.now(), "sched.job.spot_retry",
              {{"job", std::string_view(j.job.name)},
               {"wasted_cost", r.cost}});
  // Retry immediately; the wasted partial execution stays on the bill.
  j.accrued += r.cost;
  j.spotted = true;
  attempt(id);
}

void DeferredExecutor::complete(SlabId id,
                                const serverless::InvocationResult& r) {
  const Job& j = jobs_[id];
  const bool met_deadline = r.finished <= j.deadline;
  const Money cost = j.accrued + r.cost;

  ++report_.jobs;
  if (!met_deadline) ++report_.deadline_misses;
  report_.total_cost += cost;
  const double latency_s = (r.finished - j.released).to_seconds();
  report_.completion_latency_s.add(latency_s);

  if (m_.completion_latency_s) m_.completion_latency_s->add(latency_s);
  if (m_.job_cost_usd) m_.job_cost_usd->add(cost.to_usd());
  if (trace_)
    obs::emit(trace_, sim_.now(), "sched.job.complete",
              {{"job", std::string_view(j.job.name)},
               {"latency", r.finished - j.released},
               {"met_deadline", met_deadline},
               {"cost", cost}});
  jobs_.release(id);
}

void DeferredExecutor::reject(const DeferredJob& job) {
  ++report_.rejected;
  if (trace_)
    obs::emit(trace_, sim_.now(), "sched.job.rejected",
              {{"job", std::string_view(job.name)}});
}

}  // namespace ntco::sched
