#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ntco/broker/workload_ids.hpp"
#include "ntco/common/contracts.hpp"
#include "ntco/common/units.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/sim/simulator.hpp"

/// \file batch_dispatcher.hpp
/// Cross-user batch dispatch: amortising cold starts over a population.
///
/// sched::Policy::Batched aligns one user's jobs; the dispatcher does the
/// same across *users*. Admitted jobs that target the same group (same
/// workload, hence the same deployed functions) and the same flush instant
/// are collected and released together. A batch that reaches `kMaxBatch`
/// is *sealed* — it stops accepting jobs (later arrivals open a fresh
/// batch under the same key) but still waits for its flush instant, since
/// flushing early would run the jobs outside the price window the instant
/// was aligned to. Within a flushed batch, jobs are split round-robin over
/// `kBatchLanes` sequential chains: each lane starts its next job only
/// when the previous one completed, so at most `kBatchLanes` instances per
/// function ever run concurrently and every job after a lane's first
/// reuses a warm instance instead of paying a cold start. The lane count
/// trades completion latency (fewer lanes = longer chains) against cold
/// starts (more lanes = more first-in-lane colds).
///
/// Jobs are ids owned by a Runner (the broker's request records): the
/// dispatcher queues ids, and at flush tells the runner which job follows
/// which in a lane and which jobs start now. The runner starts a job's
/// lane successor when that job completes.
///
/// Determinism: group state lives in a std::map keyed by (group, flush
/// time), flushes are simulator events, and jobs within a batch keep their
/// enqueue order — so dispatch is a pure function of the request sequence.
/// A group is a workload, named by its interned id (workload_ids.hpp).

namespace ntco::broker {

/// Seal a batch once it holds this many jobs (it keeps its flush instant;
/// later arrivals start a new batch under the same key).
inline constexpr std::size_t kMaxBatch = 32;
/// Sequential execution chains per flushed batch.
inline constexpr std::size_t kBatchLanes = 4;
/// Alignment grid for flush instants (the broker rounds start times up to
/// a multiple of this; see Broker::dispatch).
inline constexpr Duration kBatchInterval = Duration::minutes(10);
static_assert(kMaxBatch > 0 && kBatchLanes > 0);
static_assert(kBatchInterval > Duration::zero());

struct BatchStats {
  std::uint64_t batches = 0;  ///< flushes executed
  std::uint64_t jobs_dispatched = 0;
  std::uint64_t sealed = 0;  ///< batches closed at kMaxBatch before flushing
};

/// Groups compatible jobs and releases each batch as `kBatchLanes`
/// sequential chains on the simulator.
class BatchDispatcher {
 public:
  /// A queued job, named by its runner.
  using JobId = std::uint64_t;

  /// Owner of the jobs. At flush, `follow` is called for every lane
  /// successor, then `start` for every lane head.
  class Runner {
   public:
    /// `next` runs in `prev`'s lane: start it when `prev` completes.
    virtual void follow(JobId prev, JobId next) = 0;
    /// Starts `job` now.
    virtual void start(JobId job) = 0;

   protected:
    ~Runner() = default;
  };

  /// `runner` must outlive the dispatcher.
  BatchDispatcher(sim::Simulator& sim, Runner& runner)
      : sim_(sim), runner_(runner) {}

  BatchDispatcher(const BatchDispatcher&) = delete;
  BatchDispatcher& operator=(const BatchDispatcher&) = delete;

  /// Queues `job` into the (group, flush_at) batch, scheduling the flush
  /// event on first use of that batch. `flush_at` is clamped to now.
  void enqueue(WorkloadId group, TimePoint flush_at, JobId job);

  /// Unsealed batches waiting for their flush instant.
  [[nodiscard]] std::size_t open_batches() const { return open_.size(); }
  [[nodiscard]] const BatchStats& stats() const { return stats_; }

  /// `trace` (may be null) receives "broker.batch_flush", which prints the
  /// group's name from `names` (required with a trace; must outlive the
  /// dispatcher).
  void set_trace(obs::TraceSink* trace, const WorkloadIds* names) {
    NTCO_EXPECTS(trace == nullptr || names != nullptr);
    trace_ = trace;
    names_ = names;
  }

 private:
  struct Key {
    WorkloadId group = 0;
    std::int64_t at_us = 0;  ///< flush TimePoint, µs since origin
    /// 0 while the batch is open; a sealed batch's seal number, unique
    /// among sealed batches.
    std::uint64_t seal = 0;

    auto operator<=>(const Key&) const = default;
  };
  struct Pending {
    std::vector<JobId> jobs;
    sim::EventId flush_event = sim::kNoEvent;
  };
  using Batches = std::map<Key, Pending>;

  /// Schedules the flush of `batches`' entry `it` at `at`. The handler
  /// holds just the map and the iterator, which stays valid until the
  /// entry is extracted: by this event, or by sealing, which cancels the
  /// event first.
  sim::EventId schedule_flush(Batches& batches, Batches::iterator it,
                              TimePoint at);
  void release(WorkloadId group, const std::vector<JobId>& jobs, bool sealed);

  sim::Simulator& sim_;
  Runner& runner_;
  Batches open_;
  /// Sealed batches waiting for their flush instant.
  Batches sealed_;
  std::uint64_t seals_ = 0;
  BatchStats stats_;
  obs::TraceSink* trace_ = nullptr;
  const WorkloadIds* names_ = nullptr;
};

}  // namespace ntco::broker
