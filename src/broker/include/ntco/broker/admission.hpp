#pragma once

#include <cstdint>

#include "ntco/common/units.hpp"
#include "ntco/obs/trace.hpp"

/// \file admission.hpp
/// Deadline-aware admission control for the offload broker.
///
/// Planning capacity is finite: the broker can only compute (or even serve)
/// so many decisions per second. A token bucket models that budget in
/// simulated time — `rate_per_second` sustained decisions with bursts up to
/// `burst`. A request that finds no token is not dropped outright; the
/// paper's whole premise is that these jobs are *non-time-critical*, so the
/// natural reaction to overload is to wait:
///   - **defer** when the request's slack survives the wait: it retries at
///     `retry_at`, quoted from the refill rate *and* the backlog already
///     waiting, so deferred requests drain at the sustained rate instead
///     of retrying in lockstep;
///   - **shed** with an explicit reason when it cannot — either the
///     deferral queue is already at its bound (QueueFull) or the deadline
///     is too tight to absorb the wait (DeadlineTooTight). QueueFull is
///     checked first: a full queue sheds regardless of slack, so a
///     request that hits both conditions reports the capacity problem,
///     not the deadline.
/// One check runs before any of that: a request that is infeasible *on
/// arrival* (`now + est > deadline` — it would miss even if admitted this
/// instant) is shed as DeadlineTooTight without consuming a token. That
/// shed is genuinely the client's problem, so it precedes the QueueFull
/// attribution rule, which only governs wait-induced misses.
/// Shedding is loud by design: a silent drop would read as a simulator bug,
/// an explicit reason is an SLO signal.
///
/// Decisions depend only on the config, simulated TimePoints and the
/// request stream, so they are deterministic and fleet-safe (each shard
/// owns its controller).

namespace ntco::broker {

struct AdmissionConfig {
  /// Sustained admission throughput (token refill rate).
  double rate_per_second = 50.0;
  /// Bucket capacity: decisions admitted back-to-back before throttling.
  double burst = 10.0;
  /// Bound on concurrently deferred (waiting-to-retry) requests.
  std::size_t max_deferred = 4096;
  /// Floor on the deferral wait, so retries never busy-spin.
  Duration min_defer = Duration::seconds(1);
};

enum class AdmissionVerdict : std::uint8_t { Admitted, Deferred, Shed };

enum class ShedReason : std::uint8_t {
  None,
  /// now + est (infeasible on arrival) or retry_at + est (cannot absorb
  /// the deferral wait) overshoots the deadline.
  DeadlineTooTight,
  QueueFull,  ///< max_deferred requests already waiting
};

struct AdmissionDecision {
  AdmissionVerdict verdict = AdmissionVerdict::Admitted;
  ShedReason reason = ShedReason::None;
  /// When a Deferred request should retry (unset otherwise).
  TimePoint retry_at;
};

struct AdmissionStats {
  std::uint64_t admitted = 0;
  std::uint64_t deferrals = 0;  ///< defer verdicts (a request may defer twice)
  std::uint64_t shed = 0;
  std::size_t deferred_outstanding = 0;  ///< currently waiting to retry
};

/// Token-bucket admission controller over simulated time.
class AdmissionController {
 public:
  explicit AdmissionController(AdmissionConfig cfg);

  /// Decides one request at simulated `now`, due at `deadline`, whose
  /// execution is expected to take `est`. Pre: now is non-decreasing
  /// across calls (simulated time only moves forward).
  [[nodiscard]] AdmissionDecision decide(TimePoint now, TimePoint deadline,
                                         Duration est);

  /// A previously Deferred request is back (its retry fired); call before
  /// the retry's decide() so the queue bound frees the slot first.
  void retry_resolved();

  [[nodiscard]] const AdmissionStats& stats() const { return stats_; }
  [[nodiscard]] const AdmissionConfig& config() const { return cfg_; }

  /// `trace` (may be null) receives "broker.admission_defer" /
  /// "broker.admission_shed".
  void set_trace(obs::TraceSink* trace) { trace_ = trace; }

 private:
  void refill(TimePoint now);

  AdmissionConfig cfg_;
  double tokens_;
  TimePoint last_refill_;
  AdmissionStats stats_;
  obs::TraceSink* trace_ = nullptr;
};

}  // namespace ntco::broker
