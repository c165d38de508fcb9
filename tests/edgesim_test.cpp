#include "ntco/edgesim/edge_platform.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "ntco/common/error.hpp"
#include "ntco/common/rng.hpp"

namespace ntco::edgesim {
namespace {

EdgeConfig two_servers() {
  EdgeConfig cfg;
  cfg.servers = 2;
  cfg.server_speed = Frequency::gigahertz(2.0);
  cfg.infra_cost_per_server_hour = Money::from_usd(0.10);
  cfg.request_overhead = Duration::millis(2);
  return cfg;
}

TEST(EdgePlatform, ExecTimeFollowsServerSpeed) {
  sim::Simulator s;
  EdgePlatform edge(s, two_servers());
  EXPECT_EQ(edge.exec_time(Cycles::giga(2)), Duration::seconds(1));
}

TEST(EdgePlatform, UncontendedJobRunsImmediately) {
  sim::Simulator s;
  EdgePlatform edge(s, two_servers());
  EdgeResult result;
  edge.submit(Cycles::giga(2), [&](const EdgeResult& r) { result = r; });
  s.run();
  EXPECT_TRUE(result.queue_wait.is_zero());
  EXPECT_EQ(result.exec_time, Duration::seconds(1));
  EXPECT_EQ(result.finished.since_origin(),
            Duration::seconds(1) + Duration::millis(2));
}

TEST(EdgePlatform, SaturationQueuesJobs) {
  sim::Simulator s;
  EdgePlatform edge(s, two_servers());
  std::vector<Duration> waits;
  for (int i = 0; i < 6; ++i)
    edge.submit(Cycles::giga(2),
                [&](const EdgeResult& r) { waits.push_back(r.queue_wait); });
  EXPECT_EQ(edge.busy(), 2u);
  EXPECT_EQ(edge.queued(), 4u);
  s.run();
  ASSERT_EQ(waits.size(), 6u);
  EXPECT_TRUE(waits[0].is_zero());
  EXPECT_TRUE(waits[1].is_zero());
  // Third wave waited for two full service rounds.
  EXPECT_GT(waits[4], Duration::seconds(1));
  EXPECT_GT(waits[5], waits[3]);
}

TEST(EdgePlatform, InfrastructureCostAccruesWithWallTimeNotLoad) {
  sim::Simulator s;
  EdgePlatform edge(s, two_servers());
  // One hour passes with zero jobs: the site still bills 2 server-hours.
  s.schedule_after(Duration::hours(1), [] {});
  s.run();
  EXPECT_NEAR(edge.infrastructure_cost().to_usd(), 0.20, 1e-9);
  EXPECT_DOUBLE_EQ(edge.utilization(), 0.0);
}

TEST(EdgePlatform, UtilizationReflectsBusyShare) {
  sim::Simulator s;
  EdgePlatform edge(s, two_servers());
  edge.submit(Cycles::giga(2), [](const EdgeResult&) {});  // ~1 s on 1 of 2
  s.run();
  s.run_until(s.now() + Duration::seconds(1));  // 2 s elapsed total
  EXPECT_NEAR(edge.utilization(), (1.002) / (2.004 * 2.0), 1e-3);
}

TEST(EdgePlatform, StatsAccumulate) {
  sim::Simulator s;
  EdgePlatform edge(s, two_servers());
  for (int i = 0; i < 3; ++i) edge.submit(Cycles::giga(2), [](const EdgeResult&) {});
  s.run();
  EXPECT_EQ(edge.stats().jobs, 3u);
  EXPECT_EQ(edge.stats().total_exec, Duration::seconds(3));
  EXPECT_GT(edge.stats().total_queue_wait, Duration::zero());
}

TEST(EdgeCheckpoint, ResumedJobServesOnlyRemainder) {
  sim::Simulator s;
  EdgePlatform edge(s, two_servers());
  EdgeResult result;
  edge.submit_resumed(Cycles::giga(2), Duration::millis(500),
                      [&](const EdgeResult& r) { result = r; });
  s.run();
  EXPECT_FALSE(result.preempted);
  EXPECT_EQ(result.exec_time, Duration::millis(500));
  EXPECT_EQ(result.exec_credit, Duration::millis(500));
  EXPECT_EQ(result.finished.since_origin(),
            Duration::millis(500) + Duration::millis(2));
}

TEST(EdgeCheckpoint, RunningJobReportsExecPastOverhead) {
  sim::Simulator s;
  EdgePlatform edge(s, two_servers());
  EdgeResult result;
  const auto id =
      edge.submit(Cycles::giga(2), [&](const EdgeResult& r) { result = r; });
  s.schedule_at(TimePoint::origin() + Duration::millis(400),
                [&] { EXPECT_TRUE(edge.checkpoint(id)); });
  s.run();
  EXPECT_TRUE(result.preempted);
  // 400 ms elapsed minus the 2 ms dispatch overhead actually executed.
  EXPECT_EQ(result.exec_time, Duration::millis(398));
  EXPECT_EQ(edge.stats().preemptions, 1u);
  // The server freed at checkpoint time, not at the planned completion.
  EXPECT_EQ(edge.busy(), 0u);
}

TEST(EdgeCheckpoint, QueuedJobCheckpointsWithZeroExec) {
  sim::Simulator s;
  EdgePlatform edge(s, two_servers());
  edge.submit(Cycles::giga(2), [](const EdgeResult&) {});
  edge.submit(Cycles::giga(2), [](const EdgeResult&) {});
  EdgeResult result;
  const auto id =
      edge.submit(Cycles::giga(2), [&](const EdgeResult& r) { result = r; });
  EXPECT_EQ(edge.queued(), 1u);
  EXPECT_TRUE(edge.checkpoint(id));
  EXPECT_TRUE(result.preempted);
  EXPECT_TRUE(result.exec_time.is_zero());
  EXPECT_EQ(edge.queued(), 0u);
  s.run();
}

TEST(EdgeCheckpoint, CheckpointThenResumeSumsToFullExec) {
  sim::Simulator s;
  EdgePlatform edge(s, two_servers());
  EdgeResult first;
  const auto id =
      edge.submit(Cycles::giga(2), [&](const EdgeResult& r) { first = r; });
  s.schedule_at(TimePoint::origin() + Duration::millis(400),
                [&] { edge.checkpoint(id); });
  s.run();
  EdgeResult second;
  edge.submit_resumed(Cycles::giga(2), first.exec_time,
                      [&](const EdgeResult& r) { second = r; });
  s.run();
  EXPECT_FALSE(second.preempted);
  EXPECT_EQ(first.exec_time + second.exec_time, Duration::seconds(1));
}

TEST(EdgeCheckpoint, InFlightTracksProgress) {
  sim::Simulator s;
  EdgePlatform edge(s, two_servers());
  const auto id = edge.submit(Cycles::giga(2), [](const EdgeResult&) {});
  s.schedule_at(TimePoint::origin() + Duration::millis(502), [&] {
    const auto st = edge.in_flight(id);
    ASSERT_TRUE(st.has_value());
    EXPECT_TRUE(st->executing);
    EXPECT_EQ(st->consumed, Duration::millis(500));
    EXPECT_EQ(st->remaining, Duration::millis(500));
  });
  s.run();
  EXPECT_FALSE(edge.in_flight(id).has_value());  // completed
  EXPECT_FALSE(edge.checkpoint(id));             // unknown by now
}

TEST(EdgePlatform, InvalidConfigRejected) {
  sim::Simulator s;
  EdgeConfig cfg = two_servers();
  cfg.server_speed = Frequency::hertz(0);
  EXPECT_THROW(EdgePlatform(s, cfg), ConfigError);
  cfg = two_servers();
  cfg.servers = 0;
  EXPECT_THROW(EdgePlatform(s, cfg), ContractViolation);
  cfg = two_servers();
  cfg.request_overhead = -Duration::millis(1);
  EXPECT_THROW(EdgePlatform(s, cfg), ContractViolation);
}

// --- FIFO server pool ------------------------------------------------------
//
// The pool semantics of the edge site, at 1 GHz and no dispatch overhead,
// so a job of n x 10^6 cycles holds a server for exactly n ms.

EdgeConfig pool(std::size_t servers) {
  EdgeConfig cfg;
  cfg.servers = servers;
  cfg.server_speed = Frequency::gigahertz(1.0);
  cfg.request_overhead = Duration::zero();
  return cfg;
}

/// Work that holds a 1 GHz server for `ms` milliseconds.
Cycles millis_of_work(std::uint64_t ms) { return Cycles::mega(ms); }

TEST(ServerPool, SingleServerSerialisesJobs) {
  sim::Simulator sim;
  EdgePlatform edge(sim, pool(1));
  std::vector<Duration> starts;
  for (int i = 0; i < 3; ++i)
    edge.submit(millis_of_work(10), [&](const EdgeResult& r) {
      starts.push_back(r.started.since_origin());
    });
  sim.run();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0], Duration::zero());
  EXPECT_EQ(starts[1], Duration::millis(10));
  EXPECT_EQ(starts[2], Duration::millis(20));
  // One server busy for all 30 ms of the run.
  EXPECT_DOUBLE_EQ(edge.utilization(), 1.0);
  EXPECT_EQ(edge.stats().jobs, 3u);
}

TEST(ServerPool, ParallelServersRunConcurrently) {
  sim::Simulator sim;
  EdgePlatform edge(sim, pool(3));
  int done = 0;
  for (int i = 0; i < 3; ++i)
    edge.submit(millis_of_work(10), [&](const EdgeResult& r) {
      EXPECT_EQ(r.started, TimePoint::origin());
      ++done;
    });
  sim.run();
  EXPECT_EQ(done, 3);
  EXPECT_EQ(sim.now().since_origin(), Duration::millis(10));
}

TEST(ServerPool, QueueDrainsAfterRelease) {
  sim::Simulator sim;
  EdgePlatform edge(sim, pool(2));
  std::vector<Duration> starts;
  for (int i = 0; i < 5; ++i)
    edge.submit(millis_of_work(4), [&](const EdgeResult& r) {
      starts.push_back(r.started.since_origin());
    });
  EXPECT_EQ(edge.busy(), 2u);
  EXPECT_EQ(edge.queued(), 3u);
  sim.run();
  ASSERT_EQ(starts.size(), 5u);
  EXPECT_EQ(starts[4], Duration::millis(8));
}

TEST(ServerPool, ZeroCapacityThrows) {
  sim::Simulator sim;
  EXPECT_THROW(EdgePlatform(sim, pool(0)), ContractViolation);
}

TEST(ServerPool, ZeroServiceTimeCompletesImmediately) {
  sim::Simulator sim;
  EdgePlatform edge(sim, pool(1));
  bool done = false;
  edge.submit(Cycles::zero(), [&](const EdgeResult&) { done = true; });
  sim.run();
  EXPECT_TRUE(done);
  EXPECT_EQ(sim.now(), TimePoint::origin());
}

TEST(ServerPool, CancelQueuedJobNeverRuns) {
  sim::Simulator sim;
  EdgePlatform edge(sim, pool(1));
  edge.submit(millis_of_work(10), [](const EdgeResult&) {});
  std::vector<EdgeResult> results;
  const auto id = edge.submit(
      millis_of_work(10), [&](const EdgeResult& r) { results.push_back(r); });
  EXPECT_TRUE(edge.checkpoint(id));
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].preempted);
  EXPECT_TRUE(results[0].exec_time.is_zero());
  EXPECT_EQ(edge.queued(), 0u);
  sim.run();
  EXPECT_EQ(results.size(), 1u);  // it never ran to a completion
  EXPECT_EQ(edge.stats().jobs, 1u);
}

TEST(ServerPool, CancelRunningJobFreesServerAndReportsConsumed) {
  sim::Simulator sim;
  EdgePlatform edge(sim, pool(1));
  EdgeResult cancelled;
  const auto id = edge.submit(millis_of_work(10),
                              [&](const EdgeResult& r) { cancelled = r; });
  Duration waited;
  edge.submit(millis_of_work(5), [&](const EdgeResult& r) {
    waited = r.started.since_origin();
  });
  sim.schedule_at(TimePoint::origin() + Duration::millis(4),
                  [&] { EXPECT_TRUE(edge.checkpoint(id)); });
  sim.run();
  EXPECT_TRUE(cancelled.preempted);
  EXPECT_EQ(cancelled.exec_time, Duration::millis(4));
  EXPECT_EQ(cancelled.started, TimePoint::origin());
  // The queued job started the moment the checkpoint freed the server, and
  // the refunded busy time only counts service actually rendered: one
  // server busy 4 + 5 ms of a 9 ms run (15/9 without the refund).
  EXPECT_EQ(waited, Duration::millis(4));
  EXPECT_EQ(sim.now().since_origin(), Duration::millis(9));
  EXPECT_DOUBLE_EQ(edge.utilization(), 1.0);
  EXPECT_EQ(edge.stats().jobs, 1u);
}

TEST(ServerPool, CancelUnknownTicketReturnsNullopt) {
  sim::Simulator sim;
  EdgePlatform edge(sim, pool(1));
  const auto id = edge.submit(millis_of_work(1), [](const EdgeResult&) {});
  sim.run();
  EXPECT_FALSE(edge.checkpoint(id));  // already completed
  EXPECT_FALSE(edge.in_flight(id).has_value());
}

TEST(ServerPool, StatusTracksQueuedThenRunning) {
  sim::Simulator sim;
  EdgePlatform edge(sim, pool(1));
  edge.submit(millis_of_work(5), [](const EdgeResult&) {});
  const auto id = edge.submit(millis_of_work(5), [](const EdgeResult&) {});
  const auto queued = edge.in_flight(id);
  ASSERT_TRUE(queued.has_value());
  EXPECT_FALSE(queued->executing);
  sim.schedule_at(TimePoint::origin() + Duration::millis(6), [&] {
    // Started at 5 ms, so 1 ms of its 5 ms is rendered at 6 ms.
    const auto running = edge.in_flight(id);
    ASSERT_TRUE(running.has_value());
    EXPECT_TRUE(running->executing);
    EXPECT_EQ(running->consumed, Duration::millis(1));
    EXPECT_EQ(running->remaining, Duration::millis(4));
  });
  sim.run();
}

// --- Randomized: one record per job ----------------------------------------

struct EdgeCoverage {
  std::size_t queued_checkpoints[3] = {0, 0, 0};  ///< head, middle, tail
  std::size_t running_checkpoints = 0;
  std::size_t resumed_with_credit = 0;
  std::size_t resubmits_into_own_slot = 0;
  std::size_t queued_polls = 0;
  std::size_t running_polls = 0;
  std::size_t stale_ids_on_reused_slots = 0;
  std::size_t never_minted_ids = 0;
};

/// Drives one edge site with a seeded stream of submits and resumes,
/// checkpoints of running and of queued (head, middle, tail) jobs,
/// completions, and callbacks that submit again, checking the site after
/// every action and every delivered result at the end.
class EdgeScenario {
 public:
  EdgeScenario(std::uint64_t seed, std::size_t servers, EdgeCoverage& cov)
      : servers_(servers), edge_(sim_, config(servers)), rng_(seed),
        cov_(cov) {}

  void run() {
    for (std::size_t step = 0; step < kSteps; ++step) {
      act();
      if (testing::Test::HasFatalFailure()) return;
      check();
      if (testing::Test::HasFatalFailure()) return;
    }
    open_ = false;  // drain: callbacks stop submitting
    while (sim_.step()) {
      check();
      if (testing::Test::HasFatalFailure()) return;
    }
    check_results();
  }

 private:
  static constexpr std::size_t kSteps = 300;
  static constexpr Duration kOverhead = Duration::millis(2);

  /// One submission, by submission order.
  struct Tracked {
    EdgePlatform::JobId id = 0;
    TimePoint submitted;
    Duration exec;  ///< planned exec after credit
    Duration credit;
    bool resubmit = false;  ///< its callback submits again
    bool queued_checkpoint = false;
    int fired = 0;
    EdgeResult result;
    struct Poll {
      TimePoint at;
      EdgePlatform::InFlightStatus st;
    };
    std::vector<Poll> polls;
  };

  static EdgeConfig config(std::size_t servers) {
    EdgeConfig cfg;
    cfg.servers = servers;
    cfg.server_speed = Frequency::gigahertz(1.0);
    cfg.request_overhead = kOverhead;
    return cfg;
  }

  /// Exec rendered `elapsed` after a start: the overhead comes first.
  static Duration rendered_exec(Duration elapsed, Duration exec) {
    const Duration past = elapsed > kOverhead ? elapsed - kOverhead
                                              : Duration::zero();
    return past < exec ? past : exec;
  }

  void submit() {
    const std::size_t k = jobs_.size();
    Tracked& t = jobs_.emplace_back();
    const Cycles work =
        Cycles::mega(static_cast<std::uint64_t>(rng_.uniform_int(1, 30)));
    const Duration full = edge_.exec_time(work);
    const bool resumed = rng_.bernoulli(0.25);
    t.credit = resumed ? Duration::millis(rng_.uniform_int(0, 40))
                       : Duration::zero();
    t.exec = t.credit < full ? full - t.credit : Duration::zero();
    t.submitted = sim_.now();
    t.resubmit = rng_.bernoulli(0.2);
    EdgePlatform::Callback done = [this, k](const EdgeResult& r) {
      delivered(k, r);
    };
    t.id = resumed ? edge_.submit_resumed(work, t.credit, std::move(done))
                   : edge_.submit(work, std::move(done));
    if (!t.credit.is_zero()) ++cov_.resumed_with_credit;
    ASSERT_NE(t.id, 0u);
    ASSERT_TRUE(minted_.insert(t.id).second) << "id minted twice";
    live_.emplace(t.id, k);
  }

  void delivered(std::size_t k, const EdgeResult& r) {
    Tracked& t = jobs_[k];
    ++callbacks_;
    ASSERT_EQ(++t.fired, 1) << "callback of job " << k;
    t.result = r;
    rendered_ += r.finished - r.started;
    EXPECT_FALSE(edge_.in_flight(t.id).has_value());
    if (!t.resubmit || !open_) return;
    submit();
    const EdgePlatform::JobId fresh = jobs_.back().id;
    EXPECT_EQ(fresh & 0xFFFFFFFFu, t.id & 0xFFFFFFFFu) << "took another slot";
    EXPECT_NE(fresh, t.id);
    ++cov_.resubmits_into_own_slot;
  }

  /// Polls every live job, split by state, each in submission order.
  void partition(std::vector<std::size_t>& running,
                 std::vector<std::size_t>& queued) {
    running.clear();
    queued.clear();
    for (const auto& [id, k] : live_) {
      const auto st = edge_.in_flight(id);
      ASSERT_TRUE(st.has_value()) << "live job " << k;
      jobs_[k].polls.push_back({sim_.now(), *st});
      (st->executing ? running : queued).push_back(k);
    }
    std::sort(running.begin(), running.end());
    std::sort(queued.begin(), queued.end());
    cov_.running_polls += running.size();
    cov_.queued_polls += queued.size();
  }

  void act() {
    std::vector<std::size_t> running;
    std::vector<std::size_t> queued;
    partition(running, queued);
    const double action = rng_.uniform(0.0, 1.0);
    if (action < 0.4) {
      submit();
    } else if (action < 0.55 && !queued.empty()) {
      const auto where = rng_.uniform_int(0, 2);
      const std::size_t pos = where == 0   ? 0
                              : where == 1 ? queued.size() / 2
                                           : queued.size() - 1;
      ++cov_.queued_checkpoints[pos == 0                   ? 0
                                : pos + 1 == queued.size() ? 2
                                                           : 1];
      Tracked& t = jobs_[queued[pos]];
      t.queued_checkpoint = true;
      ASSERT_TRUE(edge_.checkpoint(t.id));
      ASSERT_EQ(t.fired, 1);
      EXPECT_TRUE(t.result.preempted);
    } else if (action < 0.65 && !running.empty()) {
      Tracked& t = jobs_[running[static_cast<std::size_t>(rng_.uniform_int(
          0, static_cast<std::int64_t>(running.size()) - 1))]];
      ++cov_.running_checkpoints;
      ASSERT_TRUE(edge_.checkpoint(t.id));
      ASSERT_EQ(t.fired, 1);
      EXPECT_TRUE(t.result.preempted);
    } else {
      sim_.step();  // a completion
    }
  }

  void check() {
    for (auto it = live_.begin(); it != live_.end();) {
      if (jobs_[it->second].fired == 0) {
        ++it;
        continue;
      }
      retired_.push_back(it->first);
      it = live_.erase(it);
    }
    std::vector<std::size_t> running;
    std::vector<std::size_t> queued;
    partition(running, queued);
    ASSERT_EQ(running.size(), edge_.busy());
    ASSERT_EQ(queued.size(), edge_.queued());
    ASSERT_LE(edge_.busy(), servers_);
    // FIFO: a job waits only while every server is busy, every running
    // job was submitted before every queued one, and jobs start in
    // submission order.
    if (!queued.empty()) {
      ASSERT_EQ(edge_.busy(), servers_);
      ASSERT_LT(running.back(), queued.front());
    }
    for (const std::size_t k : running) {
      if (!started_.insert(k).second) continue;
      ASSERT_GE(k, next_start_) << "job " << k << " started out of order";
      next_start_ = k + 1;
    }
    // Busy-time ledger: delivered jobs count the service they rendered,
    // running ones their full service, charged at start. Utilisation reads
    // 0 until time has passed.
    Duration charged = rendered_;
    for (const std::size_t k : running) charged += kOverhead + jobs_[k].exec;
    const double elapsed_s = sim_.now().since_origin().to_seconds();
    if (elapsed_s > 0.0) {
      ASSERT_NEAR(
          edge_.utilization() * elapsed_s * static_cast<double>(servers_),
          charged.to_seconds(), 1e-9);
    }
    ASSERT_EQ(edge_.stats().jobs + edge_.stats().preemptions, callbacks_);
    // Delivered and never-minted ids answer nothing, even once their slots
    // hold other jobs.
    std::set<std::uint64_t> live_slots;
    for (const auto& [id, k] : live_) live_slots.insert(id & 0xFFFFFFFFu);
    for (const EdgePlatform::JobId id : retired_) {
      ASSERT_FALSE(edge_.in_flight(id).has_value());
      ASSERT_FALSE(edge_.checkpoint(id));
      if (live_slots.count(id & 0xFFFFFFFFu) != 0)
        ++cov_.stale_ids_on_reused_slots;
    }
    for (const Tracked& t : jobs_) {
      const EdgePlatform::JobId forged = t.id + 17;
      if (live_.count(forged) != 0) continue;
      ASSERT_FALSE(edge_.in_flight(forged).has_value());
      ASSERT_FALSE(edge_.checkpoint(forged));
      if (minted_.count(forged) == 0) ++cov_.never_minted_ids;
    }
  }

  void check_results() {
    EXPECT_TRUE(live_.empty());
    EXPECT_EQ(edge_.busy(), 0u);
    EXPECT_EQ(edge_.queued(), 0u);
    std::uint64_t completed = 0;
    TimePoint last_start;
    for (std::size_t k = 0; k < jobs_.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "job " << k);
      const Tracked& t = jobs_[k];
      const EdgeResult& r = t.result;
      ASSERT_EQ(t.fired, 1);
      EXPECT_EQ(r.submitted, t.submitted);
      EXPECT_EQ(r.started - r.submitted, r.queue_wait);
      EXPECT_EQ(r.exec_credit, t.credit);
      if (!r.preempted) {
        ++completed;
        EXPECT_EQ(r.finished - r.started, kOverhead + t.exec);
        EXPECT_EQ(r.exec_time, t.exec);
      } else if (t.queued_checkpoint) {
        EXPECT_EQ(r.started, r.finished);
        EXPECT_TRUE(r.exec_time.is_zero());
      } else {
        EXPECT_EQ(r.exec_time, rendered_exec(r.finished - r.started, t.exec));
      }
      // Each poll agrees with when the job actually started.
      for (const Tracked::Poll& p : t.polls) {
        if (p.st.executing) {
          EXPECT_FALSE(t.queued_checkpoint);
          EXPECT_LE(r.started, p.at);
          EXPECT_EQ(p.st.consumed, rendered_exec(p.at - r.started, t.exec));
        } else {
          EXPECT_GE(r.started, p.at);
          EXPECT_TRUE(p.st.consumed.is_zero());
        }
        EXPECT_EQ(p.st.consumed + p.st.remaining, t.exec);
      }
      // Start times rise with submission order among the jobs that were
      // not checkpointed while queued.
      if (!t.queued_checkpoint) {
        EXPECT_GE(r.started, last_start);
        last_start = r.started;
      }
    }
    EXPECT_EQ(edge_.stats().jobs, completed);
  }

  sim::Simulator sim_;
  std::size_t servers_;
  EdgePlatform edge_;
  Rng rng_;
  EdgeCoverage& cov_;
  std::deque<Tracked> jobs_;  // references survive emplace_back
  std::map<EdgePlatform::JobId, std::size_t> live_;  // id -> order
  std::set<EdgePlatform::JobId> minted_;
  std::vector<EdgePlatform::JobId> retired_;  // delivered ids
  std::set<std::size_t> started_;
  std::size_t next_start_ = 0;  // 1 + order of the last job seen started
  std::uint64_t callbacks_ = 0;
  Duration rendered_;  // service rendered by delivered jobs
  bool open_ = true;   // callbacks may submit again
};

TEST(EdgeRecord, RandomizedQueueIsFifoLedgeredAndDeliversOnce) {
  EdgeCoverage cov;
  for (std::uint64_t seed = 1; seed <= 8; ++seed)
    for (const std::size_t servers : {1u, 2u, 3u}) {
      SCOPED_TRACE(testing::Message()
                   << "seed " << seed << " servers " << servers);
      EdgeScenario(seed, servers, cov).run();
      if (HasFatalFailure()) return;
    }
  // The scenarios reach every case they are meant to check.
  EXPECT_GT(cov.queued_checkpoints[0], 0u) << "head";
  EXPECT_GT(cov.queued_checkpoints[1], 0u) << "middle";
  EXPECT_GT(cov.queued_checkpoints[2], 0u) << "tail";
  EXPECT_GT(cov.running_checkpoints, 0u);
  EXPECT_GT(cov.resumed_with_credit, 0u);
  EXPECT_GT(cov.resubmits_into_own_slot, 0u);
  EXPECT_GT(cov.queued_polls, 0u);
  EXPECT_GT(cov.running_polls, 0u);
  EXPECT_GT(cov.stale_ids_on_reused_slots, 0u);
  EXPECT_GT(cov.never_minted_ids, 0u);
}

}  // namespace
}  // namespace ntco::edgesim
