#include "ntco/broker/admission.hpp"

#include <algorithm>

#include "ntco/common/contracts.hpp"

namespace ntco::broker {

AdmissionController::AdmissionController(AdmissionConfig cfg)
    : cfg_(cfg), tokens_(cfg.burst) {
  NTCO_EXPECTS(cfg_.rate_per_second > 0.0);
  NTCO_EXPECTS(cfg_.burst >= 1.0);
  NTCO_EXPECTS(!cfg_.min_defer.is_negative());
}

void AdmissionController::refill(TimePoint now) {
  NTCO_EXPECTS(now >= last_refill_);
  const double dt = (now - last_refill_).to_seconds();
  tokens_ = std::min(cfg_.burst, tokens_ + dt * cfg_.rate_per_second);
  last_refill_ = now;
}

AdmissionDecision AdmissionController::decide(TimePoint now,
                                              TimePoint deadline,
                                              Duration est) {
  refill(now);

  // Infeasible on arrival: even an immediate admission cannot finish by the
  // deadline, so dispatching would only burn a token on work guaranteed to
  // miss. Shed up front — before the token check — and leave the token for
  // a request that can still make it. This is the one shed that outranks
  // QueueFull: the deadline genuinely is the client's problem here, whereas
  // the QueueFull-first rule below exists to avoid blaming *wait-induced*
  // misses on the client.
  if (now + est > deadline) {
    ++stats_.shed;
    if (trace_)
      obs::emit(trace_, now, "broker.admission_shed",
                {{"reason", "deadline_too_tight"},
                 {"deadline", deadline},
                 {"est", est}});
    return {AdmissionVerdict::Shed, ShedReason::DeadlineTooTight, now};
  }

  if (tokens_ >= 1.0) {
    tokens_ -= 1.0;
    ++stats_.admitted;
    return {AdmissionVerdict::Admitted, ShedReason::None, now};
  }

  // No token: quote a retry time that accounts for the backlog already
  // waiting, so deferred requests drain at the refill rate instead of
  // thundering back together at the next refill.
  const double deficit = 1.0 - tokens_;
  const double backlog = static_cast<double>(stats_.deferred_outstanding);
  // The rate is floored and the wait capped so the arithmetic stays inside
  // Duration's range however small the configured rate.
  const double rate = std::max(cfg_.rate_per_second, 1e-6);
  const Duration wait = std::max(
      cfg_.min_defer,
      std::min(Duration::minutes(60),
               Duration::from_seconds((backlog + deficit) / rate)));
  const TimePoint retry_at = now + wait;

  // QueueFull outranks DeadlineTooTight: a full deferral queue sheds the
  // request no matter how much slack it has, and the quoted retry_at is
  // derived from a backlog the request cannot even join — attributing the
  // shed to the client's deadline would misreport capacity exhaustion as
  // a client-side problem (and steer SLO dashboards at the wrong knob).
  // The queue always holds at least one request, even at max_deferred 0.
  ShedReason reason = ShedReason::None;
  if (stats_.deferred_outstanding >=
      std::max<std::size_t>(1, cfg_.max_deferred)) {
    reason = ShedReason::QueueFull;
  } else if (retry_at + est > deadline) {
    reason = ShedReason::DeadlineTooTight;
  }

  if (reason != ShedReason::None) {
    ++stats_.shed;
    if (trace_)
      obs::emit(trace_, now, "broker.admission_shed",
                {{"reason", reason == ShedReason::DeadlineTooTight
                                ? "deadline_too_tight"
                                : "queue_full"},
                 {"deadline", deadline},
                 {"est", est}});
    return {AdmissionVerdict::Shed, reason, retry_at};
  }

  ++stats_.deferrals;
  ++stats_.deferred_outstanding;
  if (trace_)
    obs::emit(trace_, now, "broker.admission_defer",
              {{"retry_at", retry_at}, {"deadline", deadline}});
  return {AdmissionVerdict::Deferred, ShedReason::None, retry_at};
}

void AdmissionController::retry_resolved() {
  NTCO_EXPECTS(stats_.deferred_outstanding > 0);
  --stats_.deferred_outstanding;
}

}  // namespace ntco::broker
