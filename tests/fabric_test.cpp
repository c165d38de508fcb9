#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "ntco/app/task_graph.hpp"
#include "ntco/app/workloads.hpp"
#include "ntco/common/error.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/fabric/fabric.hpp"
#include "ntco/fleet/replicator.hpp"
#include "ntco/net/path.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/serverless/platform.hpp"
#include "ntco/sim/simulator.hpp"

namespace ntco::fabric {
namespace {

/// Path spec with zero access latency so the segment math is observable
/// undiluted; the access rate cap is set high unless a test wants it to
/// bind.
net::PathSpec wide_spec(std::string name, DataRate access,
                        Duration latency = Duration::zero()) {
  net::PathSpec s;
  s.name = std::move(name);
  s.up = {access, latency, 0.0, 0.0};
  s.down = {access, latency, 0.0, 0.0};
  return s;
}

TEST(Fabric, UncontendedMatchesPrivateLinkMath) {
  sim::Simulator sim;
  Fabric fabric(sim);
  // Segment is wide enough that the path's own 8 Mb/s access cap binds, so
  // the fabric must reproduce FixedLink timing exactly: 1 MB over 8 Mb/s =
  // 1 s serialisation + 10 ms access latency + 2 ms segment propagation.
  const auto seg = fabric.add_segment(
      {"lan.up", DataRate::megabits_per_second(1000), Duration::millis(2)});
  auto path =
      fabric.attach(wide_spec("cell", DataRate::megabits_per_second(8),
                              Duration::millis(10)),
                    Route{{seg}, {seg}});
  EXPECT_EQ(path->uplink_time(DataSize::megabytes(1)),
            Duration::millis(1012));
}

TEST(Fabric, ZeroPayloadPaysLatencyAndAdmitsNoFlow) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const auto seg = fabric.add_segment(
      {"lan.up", DataRate::megabits_per_second(100), Duration::millis(3)});
  auto path =
      fabric.attach(wide_spec("cell", DataRate::megabits_per_second(10),
                              Duration::millis(7)),
                    Route{{seg}, {}});
  // Transport contract: a zero-size transfer pays the full one-way latency
  // (access + per-segment propagation) and occupies no capacity.
  EXPECT_EQ(path->uplink_time(DataSize::zero()), Duration::millis(10));
  EXPECT_EQ(path->downlink_time(DataSize::zero()), Duration::millis(7));
  EXPECT_EQ(fabric.stats().flows, 0u);
  EXPECT_EQ(fabric.active_flows(seg), 0u);
}

TEST(Fabric, SecondFlowSharesThenInheritsFullCapacity) {
  sim::Simulator sim;
  Fabric fabric(sim);
  // 80 Mb/s segment, non-binding access caps. Flow A: 10 MB alone = 1 s.
  // Flow B admitted immediately after: half share (40 Mb/s) until A's
  // committed departure at t=1s (drains 40 Mbit of its 80), then the full
  // 80 Mb/s for the remaining half = 0.5 s. Total 1.5 s.
  const auto seg = fabric.add_segment(
      {"lan.up", DataRate::megabits_per_second(80), Duration::zero()});
  auto path = fabric.attach(
      wide_spec("ue", DataRate::megabits_per_second(100000)),
      Route{{seg}, {}});
  EXPECT_EQ(path->uplink_time(DataSize::megabytes(10)),
            Duration::seconds(1));
  EXPECT_EQ(path->uplink_time(DataSize::megabytes(10)),
            Duration::micros(1'500'000));
  EXPECT_EQ(fabric.active_flows(seg), 2u);
  EXPECT_EQ(fabric.stats().reshare_steps, 1u);  // B stepped A's departure
}

TEST(Fabric, DeparturesExpireLazily) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const auto seg = fabric.add_segment(
      {"lan.up", DataRate::megabits_per_second(80), Duration::zero()});
  auto path = fabric.attach(
      wide_spec("ue", DataRate::megabits_per_second(100000)),
      Route{{seg}, {}});
  (void)path->uplink_time(DataSize::megabytes(10));  // departs at 1 s
  (void)path->uplink_time(DataSize::megabytes(10));  // departs at 1.5 s
  EXPECT_EQ(fabric.active_flows(seg), 2u);
  EXPECT_EQ(fabric.fair_share(seg), DataRate::megabits_per_second(40));
  sim.schedule_at(TimePoint::at(Duration::seconds(2)), [] {});
  (void)sim.run();
  EXPECT_EQ(fabric.active_flows(seg), 0u);
  EXPECT_EQ(fabric.fair_share(seg), DataRate::megabits_per_second(80));
  EXPECT_EQ(fabric.segment_stats(seg).flows_departed, 2u);
  EXPECT_EQ(fabric.segment_stats(seg).flows_admitted, 2u);
  EXPECT_EQ(fabric.segment_stats(seg).peak_flows, 2u);
  EXPECT_EQ(fabric.segment_stats(seg).bytes_carried, DataSize::megabytes(20));
}

TEST(Fabric, SaturationSlowsLaterArrivalsMonotonically) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const auto seg = fabric.add_segment(
      {"lan.up", DataRate::megabits_per_second(100), Duration::zero()});
  auto path = fabric.attach(
      wide_spec("ue", DataRate::megabits_per_second(100000)),
      Route{{seg}, {}});
  std::vector<Duration> times;
  for (int i = 0; i < 8; ++i)
    times.push_back(path->uplink_time(DataSize::megabytes(25)));
  for (std::size_t i = 1; i < times.size(); ++i)
    EXPECT_GT(times[i], times[i - 1]) << "arrival " << i;
  // Admission-order fairness: the eighth concurrent flow must take at
  // least twice as long as the first (it rides behind all of them).
  EXPECT_GE(times.back().to_seconds(), 2.0 * times.front().to_seconds());
  EXPECT_EQ(fabric.segment_stats(seg).peak_flows, 8u);
}

TEST(Fabric, MultiSegmentRouteIsBottleneckedByNarrowestShare) {
  sim::Simulator sim;
  Fabric fabric(sim);
  const auto wide = fabric.add_segment(
      {"cell.up", DataRate::megabits_per_second(100), Duration::zero()});
  const auto narrow = fabric.add_segment(
      {"wan.up", DataRate::megabits_per_second(40), Duration::zero()});
  auto wan_only = fabric.attach(
      wide_spec("bg", DataRate::megabits_per_second(100000)),
      Route{{narrow}, {}});
  auto through = fabric.attach(
      wide_spec("ue", DataRate::megabits_per_second(100000)),
      Route{{wide, narrow}, {}});
  // Background flow holds the narrow segment (40 Mb/s, alone): 40 Mbit in
  // 1 s. The through flow shares it: min(100/1, 40/2) = 20 Mb/s until the
  // background departs at t=1s (20 Mbit drained), then min(100, 40) = 40
  // for the remaining 20 Mbit = 0.5 s. Total 1.5 s.
  EXPECT_EQ(wan_only->uplink_time(DataSize::megabytes(5)),
            Duration::seconds(1));
  EXPECT_EQ(through->uplink_time(DataSize::megabytes(5)),
            Duration::micros(1'500'000));
  EXPECT_EQ(fabric.active_flows(narrow), 2u);
  EXPECT_EQ(fabric.active_flows(wide), 1u);
}

TEST(Fabric, AmortizationCapHoldsSnapshotShare) {
  sim::Simulator sim;
  Fabric fabric(sim);
  // `wide` never binds (100 Gb/s); `narrow` halves the probe's share.
  const auto wide = fabric.add_segment(
      {"wide.up", DataRate::megabits_per_second(100000), Duration::zero()});
  const auto narrow = fabric.add_segment(
      {"narrow.up", DataRate::megabits_per_second(80), Duration::zero()});
  // kMaxReshareSteps + 1 staggered flows ahead on `wide`: each is held to
  // its 8 Mb/s access rate, so flow i commits its departure at i + 1 s.
  auto slow = fabric.attach(
      wide_spec("slow", DataRate::megabits_per_second(8)), Route{{wide}, {}});
  for (std::uint64_t i = 0; i <= kMaxReshareSteps; ++i)
    ASSERT_EQ(slow->uplink_time(DataSize::megabytes(i + 1)),
              Duration::seconds(static_cast<std::int64_t>(i + 1)));
  // One flow ahead on `narrow`: 1000 MB alone at 80 Mb/s departs at 100 s.
  auto bulk = fabric.attach(
      wide_spec("bulk", DataRate::megabits_per_second(100000)),
      Route{{narrow}, {}});
  ASSERT_EQ(bulk->uplink_time(DataSize::megabytes(1000)),
            Duration::seconds(100));
  EXPECT_EQ(fabric.stats().amortized_tails, 0u);

  // The probe crosses both segments at min(1515 Mb/s, 80 / 2) = 40 Mb/s.
  // It steps the first kMaxReshareSteps departures on `wide`, none of
  // which raises its share, and hits the cap at the next one: it drains
  // all 8000 Mbit at the admission-snapshot share, 200 s. Stepping on to
  // `bulk`'s departure at 100 s would have taken 100 s + 4000 Mbit at
  // 80 Mb/s = 150 s.
  auto probe = fabric.attach(
      wide_spec("probe", DataRate::megabits_per_second(100000)),
      Route{{wide, narrow}, {}});
  const std::uint64_t steps_before = fabric.stats().reshare_steps;
  EXPECT_EQ(probe->uplink_time(DataSize::megabytes(1000)),
            Duration::seconds(200));
  EXPECT_EQ(fabric.stats().amortized_tails, 1u);
  EXPECT_EQ(fabric.stats().reshare_steps - steps_before, kMaxReshareSteps);
}

TEST(Fabric, ContractViolationsThrow) {
  sim::Simulator sim;
  Fabric fabric(sim);
  EXPECT_THROW(fabric.add_segment({"z", DataRate::bits_per_second(0),
                                   Duration::zero()}),
               ContractViolation);
  const auto seg = fabric.add_segment(
      {"lan.up", DataRate::megabits_per_second(10), Duration::zero()});
  EXPECT_THROW((void)fabric.attach(wide_spec("ue", DataRate::bits_per_second(0)),
                                   Route{{seg}, {}}),
               ContractViolation);
  EXPECT_THROW((void)fabric.attach(
                   wide_spec("ue", DataRate::megabits_per_second(1)),
                   Route{{seg + 1}, {}}),
               ContractViolation);
}

TEST(FabricTrace, FlowRecordsAreOrderedAndDeterministic) {
  const auto run_once = [] {
    sim::Simulator sim;
    Fabric fabric(sim);
    const auto seg = fabric.add_segment(
        {"lan.up", DataRate::megabits_per_second(80), Duration::zero()});
    auto path = fabric.attach(
        wide_spec("ue", DataRate::megabits_per_second(100000)),
        Route{{seg}, {}});
    obs::JsonlTraceWriter trace;
    path->set_trace(&trace, &sim);
    (void)path->uplink_time(DataSize::megabytes(10));
    (void)path->uplink_time(DataSize::megabytes(10));
    (void)sim.run();
    return trace.str();
  };
  const std::string a = run_once();
  // Two starts at t=0 in admission order, then the finishes in committed
  // departure order (1 s before 1.5 s).
  EXPECT_NE(a.find("fabric.flow.start"), std::string::npos);
  const auto first_finish = a.find("fabric.flow.finish");
  ASSERT_NE(first_finish, std::string::npos);
  EXPECT_NE(a.find("fabric.flow.finish", first_finish + 1),
            std::string::npos);
  EXPECT_NE(a.find("\"flow\":0"), std::string::npos);
  EXPECT_NE(a.find("\"flow\":1"), std::string::npos);
  EXPECT_LT(a.find("\"dir\":\"up\""), first_finish);
  // Byte determinism: an identical run renders identically.
  EXPECT_EQ(a, run_once());
}

TEST(FabricFleet, ShardedTracesAreByteIdenticalAcrossWorkerCounts) {
  // The F13 determinism contract in miniature: per-shard fabrics driven
  // under a Replicator must merge to the same bytes at 1 and 8 workers.
  const auto run_fleet = [](std::size_t threads) {
    fleet::Replicator fleet(1234, threads);
    return fleet.reduce(
        8, std::string{},
        [](fleet::ShardContext& ctx) {
          sim::Simulator sim;
          Fabric fabric(sim);
          const auto seg = fabric.add_segment(
              {"lan.up", DataRate::megabits_per_second(100),
               Duration::zero()});
          auto path = fabric.attach(
              wide_spec("ue" + std::to_string(ctx.shard),
                        DataRate::megabits_per_second(100000)),
              Route{{seg}, {}});
          obs::JsonlTraceWriter trace;
          path->set_trace(&trace, &sim);
          const std::int64_t flows = ctx.rng.uniform_int(2, 4);
          for (std::int64_t i = 0; i < flows; ++i)
            (void)path->uplink_time(
                DataSize::megabytes(5 + static_cast<std::uint64_t>(i)));
          (void)sim.run();
          return trace.str();
        },
        [](std::string& acc, std::string&& shard_trace, std::size_t) {
          acc += shard_trace;
        });
  };
  const std::string t1 = run_fleet(1);
  const std::string t8 = run_fleet(8);
  EXPECT_FALSE(t1.empty());
  EXPECT_EQ(t1, t8);
}

TEST(FabricController, OffloadWorkflowRunsUnmodifiedOverFabricPath) {
  // API-redesign acceptance: core::OffloadController only sees
  // net::Transport, so the full prepare/execute workflow must run over a
  // shared fabric without modification.
  sim::Simulator sim;
  serverless::Platform cloud(sim, {});
  device::Device ue(device::budget_phone());
  Fabric fabric(sim);
  const auto up = fabric.add_segment(
      {"cell.up", DataRate::megabits_per_second(200), Duration::millis(2)});
  const auto down = fabric.add_segment(
      {"cell.down", DataRate::megabits_per_second(400), Duration::millis(2)});
  auto spec = net::spec_4g();
  auto path = fabric.attach(spec, Route{{up}, {down}});
  core::OffloadController ctl(sim, cloud, ue, *path, {});
  const auto app = app::workloads::photo_backup();
  partition::MinCutPartitioner mincut;
  const auto plan = ctl.prepare(app, mincut);
  const auto report = ctl.execute(plan, app);
  EXPECT_FALSE(report.failed);
  EXPECT_GT(report.makespan, Duration::zero());
  if (plan.partition.remote_count() > 0) {
    EXPECT_GT(fabric.stats().flows, 0u);
  }
}

}  // namespace
}  // namespace ntco::fabric
