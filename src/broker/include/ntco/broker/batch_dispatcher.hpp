#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ntco/common/units.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/sim/simulator.hpp"

/// \file batch_dispatcher.hpp
/// Cross-user batch dispatch: amortising cold starts over a population.
///
/// sched::Policy::Batched aligns one user's jobs; the dispatcher does the
/// same across *users*. Admitted jobs that target the same group (same
/// workload, hence the same deployed functions) and the same flush instant
/// are collected and released together. A batch that reaches `max_batch`
/// is *sealed* — it stops accepting jobs (later arrivals open a fresh
/// batch under the same key) but still waits for its flush instant, since
/// flushing early would run the jobs outside the price window the instant
/// was aligned to. Within a flushed batch, jobs are
/// split round-robin over `lanes` sequential chains: each lane starts its
/// next job only when the previous one completed, so at most `lanes`
/// instances per function ever run concurrently and every job after a
/// lane's first reuses a warm instance instead of paying a cold start. The
/// lane count trades completion latency (fewer lanes = longer chains)
/// against cold starts (more lanes = more first-in-lane colds).
///
/// Jobs are ids owned by a Runner (the broker's request records): the
/// dispatcher queues ids, and at flush tells the runner which job follows
/// which in a lane and which jobs start now. The runner starts a job's
/// lane successor when that job completes.
///
/// Determinism: group state lives in a std::map keyed by (group, flush
/// time), flushes are simulator events, and jobs within a batch keep their
/// enqueue order — so dispatch is a pure function of the request sequence.

namespace ntco::broker {

struct BatchConfig {
  /// Seal a batch once it holds this many jobs (it keeps its flush
  /// instant; later arrivals start a new batch under the same key).
  std::size_t max_batch = 32;
  /// Sequential execution chains per flushed batch.
  std::size_t lanes = 4;
  /// Alignment grid for flush instants (callers round start times up to a
  /// multiple of this; see Broker::serve).
  Duration interval = Duration::minutes(10);
};

struct BatchStats {
  std::uint64_t batches = 0;  ///< flushes executed
  std::uint64_t jobs_dispatched = 0;
  std::uint64_t sealed = 0;  ///< batches closed at max_batch before flushing
};

/// Groups compatible jobs and releases each batch as `lanes` sequential
/// chains on the simulator.
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
  BatchDispatcher(sim::Simulator& sim, BatchConfig cfg, Runner& runner);

  BatchDispatcher(const BatchDispatcher&) = delete;
  BatchDispatcher& operator=(const BatchDispatcher&) = delete;

  /// Queues `job` into the (group, flush_at) batch, scheduling the flush
  /// event on first use of that batch. `flush_at` is clamped to now.
  void enqueue(const std::string& group, TimePoint flush_at, JobId job);

  /// Batches currently waiting for their flush instant.
  [[nodiscard]] std::size_t open_batches() const { return pending_.size(); }
  [[nodiscard]] const BatchStats& stats() const { return stats_; }
  [[nodiscard]] const BatchConfig& config() const { return cfg_; }

  /// Attaches observability. `trace` receives "broker.batch_flush";
  /// `metrics` hosts the "broker.batch.*" counters. Either may be null.
  void attach_observer(obs::TraceSink* trace, obs::MetricsRegistry* metrics);

 private:
  struct Key {
    std::string group;
    std::int64_t at_us = 0;  ///< flush TimePoint, µs since origin

    auto operator<=>(const Key&) const = default;
  };
  struct Pending {
    std::vector<JobId> jobs;
    sim::EventId flush_event = sim::kNoEvent;
  };

  void release(const std::string& group, const std::vector<JobId>& jobs,
               bool sealed);

  struct Instruments {
    obs::Counter* batches = nullptr;
    obs::Counter* jobs = nullptr;
    obs::Counter* sealed = nullptr;
  };

  sim::Simulator& sim_;
  BatchConfig cfg_;
  Runner& runner_;
  std::map<Key, Pending> pending_;
  BatchStats stats_;
  obs::TraceSink* trace_ = nullptr;
  Instruments m_;
};

}  // namespace ntco::broker
