#include "ntco/edgesim/edge_platform.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "ntco/common/error.hpp"

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
  // Every completion handler fit the kernel's inline buffer.
  EXPECT_EQ(s.heap_handlers(), 0u);
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
}

}  // namespace
}  // namespace ntco::edgesim
