#pragma once

#include <cstdint>
#include <optional>
#include <utility>

#include "ntco/common/contracts.hpp"
#include "ntco/common/error.hpp"
#include "ntco/common/inline_function.hpp"
#include "ntco/common/slab.hpp"
#include "ntco/common/units.hpp"
#include "ntco/sim/simulator.hpp"

/// \file edge_platform.hpp
/// Edge-computing comparator: a small on-premise site with a fixed pool of
/// servers reachable over a LAN.
///
/// Two properties make this the foil for the paper's argument:
///  - capacity is finite, so load beyond `servers` queues (latency collapses
///    exactly where the serverless cloud keeps scaling), and
///  - the infrastructure bills by existing, not by use: cost accrues per
///    server-hour whether or not anything runs, which is the "required
///    infrastructure" drawback the abstract cites.
///
/// Jobs are addressable (`submit` returns a JobId) and support the
/// checkpoint/resume pair the continuum federation builds on:
/// `checkpoint` tears a queued or running job off the site, reporting the
/// exec time already rendered, and `submit_resumed` re-enters a job with
/// that partial exec credited so only the remainder is served.
///
/// Each job is one record of an ntco::Slab from submit until its callback
/// fires (DESIGN.md "One record per request"): queued jobs form an
/// intrusive FIFO through the records, and the completion event captures
/// just [this, id].

namespace ntco::edgesim {

/// Static description of one edge site.
struct EdgeConfig {
  std::size_t servers = 4;
  Frequency server_speed = Frequency::gigahertz(3.0);
  /// Amortised capex + opex per server-hour, billed on wall time.
  Money infra_cost_per_server_hour = Money::from_usd(0.12);
  /// Per-request dispatch overhead (container routing and setup).
  Duration request_overhead = Duration::millis(2);
};

/// Outcome of one edge job. A checkpointed job completes immediately with
/// `preempted = true` and `exec_time` = the partial run it consumed.
struct EdgeResult {
  TimePoint submitted;
  TimePoint started;
  TimePoint finished;
  Duration queue_wait;
  Duration exec_time;
  /// Exec credited from an earlier checkpointed run (resume path).
  Duration exec_credit;
  bool preempted = false;
};

/// Aggregate edge-site accounting.
struct EdgeStats {
  std::uint64_t jobs = 0;  ///< jobs served to completion
  std::uint64_t preemptions = 0;
  Duration total_exec;
  Duration total_queue_wait;
};

/// Fixed-capacity edge site. Jobs queue FIFO for a free server.
class EdgePlatform {
 public:
  /// Completion callback, stored inline in the job's record: a capture of
  /// up to 48 bytes never allocates.
  using Callback = InlineFunction<void(const EdgeResult&), 48>;
  /// Names a job until its callback fires; a delivered id goes stale.
  /// Never 0.
  using JobId = SlabId;

  /// Progress of a live job (see `in_flight`).
  struct InFlightStatus {
    bool executing = false;  ///< false while still queued
    Duration consumed;       ///< exec already rendered (excl. overhead)
    Duration remaining;      ///< exec still owed
  };

  EdgePlatform(sim::Simulator& sim, EdgeConfig cfg)
      : sim_(sim), cfg_(cfg), free_(cfg.servers), opened_(sim.now()) {
    NTCO_EXPECTS(cfg.servers > 0);
    NTCO_EXPECTS(!cfg.request_overhead.is_negative());
    if (cfg.server_speed.is_zero())
      throw ConfigError("edge server_speed must be positive");
  }

  EdgePlatform(const EdgePlatform&) = delete;
  EdgePlatform& operator=(const EdgePlatform&) = delete;

  /// Execution time of `work` on one edge server (excludes overhead).
  [[nodiscard]] Duration exec_time(Cycles work) const {
    return work / cfg_.server_speed;
  }

  /// Queues `work`; `done` fires on completion.
  JobId submit(Cycles work, Callback done) {
    return enqueue(work, Duration::zero(), std::move(done));
  }

  /// Queues `work` with `exec_credit` of it already performed elsewhere:
  /// only the remainder (plus dispatch overhead) occupies a server.
  JobId submit_resumed(Cycles work, Duration exec_credit, Callback done) {
    NTCO_EXPECTS(!exec_credit.is_negative());
    return enqueue(work, exec_credit, std::move(done));
  }

  /// Checkpoints a queued or running job off the site. Its callback fires
  /// immediately with `preempted = true` and `exec_time` = the partial run
  /// rendered so far (zero if still queued); a freed server takes the
  /// FIFO head first. Returns false when `id` names no live job (its
  /// callback already fired, or it was never minted).
  bool checkpoint(JobId id) {
    Job* job = jobs_.find(id);
    if (job == nullptr) return false;
    EdgeResult r;
    r.submitted = job->submitted;
    r.finished = sim_.now();
    r.preempted = true;
    r.exec_credit = job->exec_credit;
    if (job->running) {
      sim_.cancel(job->completion);
      const Duration elapsed = sim_.now() - job->started;
      // Busy time was charged for the full service at start; refund the
      // part that will never be rendered.
      const Duration served = elapsed < job->service ? elapsed : job->service;
      busy_time_ -= job->service - served;
      r.started = job->started;
      r.queue_wait = job->started - job->submitted;
      r.exec_time = rendered_exec(*job, elapsed);
      ++free_;
      dispatch();
    } else {
      unqueue(id);
      r.started = sim_.now();
      r.queue_wait = sim_.now() - job->submitted;
    }
    ++stats_.preemptions;
    stats_.total_exec += r.exec_time;
    stats_.total_queue_wait += r.queue_wait;
    deliver(id, r);
    return true;
  }

  /// Progress of a live job; nullopt once its callback fired, or for an
  /// id never minted.
  [[nodiscard]] std::optional<InFlightStatus> in_flight(JobId id) const {
    const Job* job = jobs_.find(id);
    if (job == nullptr) return std::nullopt;
    InFlightStatus s;
    s.remaining = job->exec;
    if (job->running) {
      s.executing = true;
      s.consumed = rendered_exec(*job, sim_.now() - job->started);
      s.remaining = job->exec - s.consumed;
    }
    return s;
  }

  /// Standing infrastructure cost accrued from site opening to sim-now:
  /// servers x elapsed x hourly rate, independent of utilisation.
  [[nodiscard]] Money infrastructure_cost() const {
    const double hours = (sim_.now() - opened_).to_seconds() / 3600.0;
    return cfg_.infra_cost_per_server_hour *
           (hours * static_cast<double>(cfg_.servers));
  }

  /// Busy-time share of total server capacity since opening, in [0, 1].
  [[nodiscard]] double utilization() const {
    const Duration elapsed = sim_.now() - opened_;
    if (elapsed.is_zero()) return 0.0;
    return busy_time_.to_seconds() /
           (elapsed.to_seconds() * static_cast<double>(cfg_.servers));
  }

  [[nodiscard]] const EdgeStats& stats() const { return stats_; }
  [[nodiscard]] std::size_t queued() const { return queued_; }
  [[nodiscard]] std::size_t busy() const { return cfg_.servers - free_; }
  [[nodiscard]] const EdgeConfig& config() const { return cfg_; }

 private:
  /// One job from submit until its callback fires: queued behind the
  /// busy servers, then running. The record is released just before
  /// `done` fires.
  struct Job {
    Callback done;
    TimePoint submitted;
    Duration exec;  ///< planned exec after credit
    Duration exec_credit;
    Duration service;  ///< request_overhead + exec: server time it holds
    TimePoint started;  ///< when it left the queue; set while running
    sim::EventId completion = sim::kNoEvent;
    bool running = false;
    /// Next job in the FIFO while queued.
    JobId next_queued = kNoSlabId;
  };

  /// Exec rendered `elapsed` after the job started: the dispatch overhead
  /// comes first, and the exec part never exceeds the plan.
  [[nodiscard]] Duration rendered_exec(const Job& job,
                                       Duration elapsed) const {
    const Duration past_overhead = elapsed > cfg_.request_overhead
                                       ? elapsed - cfg_.request_overhead
                                       : Duration::zero();
    return past_overhead < job.exec ? past_overhead : job.exec;
  }

  JobId enqueue(Cycles work, Duration exec_credit, Callback done) {
    NTCO_EXPECTS(done != nullptr);
    const Duration full = exec_time(work);
    const JobId id = jobs_.acquire();
    Job& job = jobs_[id];
    job.done = std::move(done);
    job.submitted = sim_.now();
    job.exec = exec_credit < full ? full - exec_credit : Duration::zero();
    job.exec_credit = exec_credit;
    job.service = cfg_.request_overhead + job.exec;
    job.running = false;
    job.next_queued = kNoSlabId;
    if (queue_tail_ == kNoSlabId)
      queue_head_ = id;
    else
      jobs_[queue_tail_].next_queued = id;
    queue_tail_ = id;
    ++queued_;
    dispatch();
    return id;
  }

  /// Starts queued jobs, FIFO, while a server is free.
  void dispatch() {
    while (free_ > 0 && queue_head_ != kNoSlabId) {
      const JobId id = queue_head_;
      unqueue(id);
      Job& job = jobs_[id];
      --free_;
      busy_time_ += job.service;
      job.running = true;
      job.started = sim_.now();
      job.completion =
          sim_.schedule_after(job.service, [this, id] { finish(id); });
    }
  }

  /// Unlinks queued job `id` from the FIFO: O(1) at the head, a walk from
  /// the head otherwise.
  void unqueue(JobId id) {
    JobId prev = kNoSlabId;
    for (JobId at = queue_head_; at != id; at = jobs_[at].next_queued)
      prev = at;
    const JobId next = jobs_[id].next_queued;
    if (prev == kNoSlabId)
      queue_head_ = next;
    else
      jobs_[prev].next_queued = next;
    if (queue_tail_ == id) queue_tail_ = prev;
    --queued_;
  }

  /// Completion event of running job `id`.
  void finish(JobId id) {
    const Job& job = jobs_[id];
    ++free_;
    EdgeResult r;
    r.submitted = job.submitted;
    r.started = job.started;
    r.finished = sim_.now();
    r.queue_wait = job.started - job.submitted;
    r.exec_time = job.exec;
    r.exec_credit = job.exec_credit;
    ++stats_.jobs;
    stats_.total_exec += job.exec;
    stats_.total_queue_wait += r.queue_wait;
    deliver(id, r);
    dispatch();
  }

  /// Releases `id`'s record, then hands `r` to its callback, which may
  /// submit again into the same slot.
  void deliver(JobId id, const EdgeResult& r) {
    Callback done = std::move(jobs_[id].done);
    jobs_.release(id);
    done(r);
  }

  sim::Simulator& sim_;
  EdgeConfig cfg_;
  std::size_t free_;  ///< idle servers
  TimePoint opened_;
  /// Server time charged so far: the full service at start, less the
  /// unrendered part of each checkpointed run.
  Duration busy_time_;
  EdgeStats stats_;
  /// Every job not yet delivered, queued or running.
  Slab<Job> jobs_;
  /// FIFO of queued jobs, linked through Job::next_queued.
  JobId queue_head_ = kNoSlabId;
  JobId queue_tail_ = kNoSlabId;
  std::size_t queued_ = 0;
};

}  // namespace ntco::edgesim
