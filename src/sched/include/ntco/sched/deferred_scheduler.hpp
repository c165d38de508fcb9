#pragma once

#include <string>

#include "ntco/common/slab.hpp"
#include "ntco/common/units.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/serverless/platform.hpp"
#include "ntco/sim/simulator.hpp"
#include "ntco/stats/accumulator.hpp"
#include "ntco/stats/percentile.hpp"

/// \file deferred_scheduler.hpp
/// Exploiting non-time-criticality (the abstract's defining constraint).
///
/// A delay-tolerant job carries a *slack*: it may complete any time within
/// [release, release + slack]. The scheduler uses that freedom to
///  - shift work into discounted price windows (off-peak / spot-like
///    tariffs), and
///  - batch jobs at a common start so warm instances are reused instead of
///    cold-started per job.
/// DeferredExecutor runs the planned schedule on a serverless::Platform and
/// reports cost, completion latency, and deadline misses (Figures F4, F7).

namespace ntco::sched {

/// One delay-tolerant job: `work` to run remotely, due `slack` after its
/// release.
struct DeferredJob {
  std::string name;
  Cycles work;
  Duration slack;
};

/// Start-time planning policy.
enum class Policy {
  Immediate,   ///< run at release (the time-critical baseline)
  CheapestWindow,  ///< earliest start inside the cheapest reachable tariff
  Batched,     ///< CheapestWindow, then align starts to batch boundaries
};

/// Capacity-tier policy for executing deferred jobs.
enum class TierPolicy {
  OnDemandOnly,      ///< always full-price, never preempted
  /// Use the discounted spot tier while there is ample slack; retry on
  /// preemption; switch to on-demand once the remaining slack gets tight.
  /// Only delay-tolerant jobs can use this — which is precisely the
  /// abstract's argument for them.
  SpotWithFallback,
};

/// Plans start times against a platform's tariff calendar.
class DeferredScheduler {
 public:
  struct Config {
    Policy policy = Policy::CheapestWindow;
    /// Capacity tier used by the executor.
    TierPolicy tier_policy = TierPolicy::OnDemandOnly;
  };

  /// Grid of candidate starts: release + k * kSearchStep.
  static constexpr Duration kSearchStep = Duration::minutes(15);
  /// Batch alignment interval for Policy::Batched.
  static constexpr Duration kBatchInterval = Duration::minutes(10);
  /// SpotWithFallback stays on spot while the time to the deadline is at
  /// least `kFallbackSafety` x the estimated duration.
  static constexpr double kFallbackSafety = 2.0;
  static_assert(kSearchStep > Duration::zero() &&
                kSearchStep <= Duration::hours(1));
  static_assert(kBatchInterval > Duration::zero());

  DeferredScheduler(const serverless::Platform& platform, Config cfg)
      : platform_(platform), cfg_(cfg) {}

  /// Latest admissible start so that `est_duration` work still meets the
  /// deadline `release + slack`, never before `release`, and at most the
  /// end of TimePoint's range (latest_admissible_start()).
  [[nodiscard]] TimePoint latest_start(TimePoint release, Duration slack,
                                       Duration est_duration) const;

  /// Planned start time for a job released at `release`, due `slack`
  /// later, whose execution is expected to take `est_duration`. Costs at
  /// most one tariff probe per hour of the first day, however large the
  /// slack. Pre: release >= origin.
  [[nodiscard]] TimePoint plan_start(TimePoint release, Duration slack,
                                     Duration est_duration) const;

  [[nodiscard]] const Config& config() const { return cfg_; }

 private:
  const serverless::Platform& platform_;
  Config cfg_;
};

/// Aggregate report over an executed job stream.
struct DeferredReport {
  std::uint64_t jobs = 0;  ///< jobs run to completion
  /// Malformed jobs (negative slack, or a deadline past TimePoint's range)
  /// refused at submit(): never scheduled, not counted in `jobs`.
  std::uint64_t rejected = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t spot_attempts = 0;     ///< invocations issued on spot
  std::uint64_t spot_preemptions = 0;  ///< spot attempts killed mid-run
  std::uint64_t fallbacks = 0;         ///< jobs finished on on-demand after
                                       ///< starting on spot
  Money total_cost;
  stats::PercentileSample completion_latency_s;  ///< finish - release

  [[nodiscard]] double miss_rate() const {
    return jobs == 0 ? 0.0
                     : static_cast<double>(deadline_misses) /
                           static_cast<double>(jobs);
  }
};

/// Executes planned jobs on one serverless function and collects the
/// report. Jobs submitted at simulated `now` are treated as released then.
/// Each submitted job is one record in an executor-owned ntco::Slab until
/// it completes; its start event and platform callbacks capture just
/// [this, id].
class DeferredExecutor {
 public:
  DeferredExecutor(sim::Simulator& sim, serverless::Platform& platform,
                   serverless::FunctionId fn, DeferredScheduler scheduler);

  /// Plans and schedules the job; completion lands in the report. A job
  /// with a negative slack, or one whose deadline now + slack overflows
  /// TimePoint, is rejected here, under every policy: it costs itself
  /// (DeferredReport::rejected, "sched.rejected", "sched.job.rejected"),
  /// never the run.
  void submit(DeferredJob job);

  [[nodiscard]] const DeferredReport& report() const { return report_; }

  /// Attaches observability. `trace` receives the "sched.job.*" spans
  /// (planned, spot retries, completions); `metrics` hosts the "sched.*"
  /// summaries. Either may be null. Stable names are listed in DESIGN.md
  /// ("Observability").
  void attach_observer(obs::TraceSink* trace, obs::MetricsRegistry* metrics);

  /// Adds the "sched.*" counters, read from report(), to `metrics`;
  /// "sched.rejected" only when a job was rejected.
  void publish(obs::MetricsRegistry& metrics) const;

 private:
  /// One submitted job, from submit() until it completes.
  struct Job {
    DeferredJob job;
    TimePoint released;
    TimePoint deadline;
    Duration est;
    Money accrued;         ///< billed cost of preempted attempts so far
    bool spotted = false;  ///< an earlier attempt ran on spot
  };

  /// Invokes the job, on spot while the remaining slack allows it.
  void attempt(SlabId id);
  /// An attempt ended: retries a preempted one, else completes the job.
  void attempt_done(SlabId id, const serverless::InvocationResult& r);
  /// Books the finished job and releases its record.
  void complete(SlabId id, const serverless::InvocationResult& r);
  /// Books a job refused at submit().
  void reject(const DeferredJob& job);

  /// Cached instrument pointers; null when no registry is attached.
  struct Instruments {
    stats::Accumulator* completion_latency_s = nullptr;
    stats::Accumulator* deferral_s = nullptr;
    stats::Accumulator* job_cost_usd = nullptr;
  };

  sim::Simulator& sim_;
  serverless::Platform& platform_;
  serverless::FunctionId fn_;
  DeferredScheduler scheduler_;
  DeferredReport report_;
  /// Submitted jobs not yet completed, one record each.
  Slab<Job> jobs_;
  obs::TraceSink* trace_ = nullptr;
  Instruments m_;
};

}  // namespace ntco::sched
