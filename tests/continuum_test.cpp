#include "ntco/continuum/federation.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "ntco/edgesim/edge_platform.hpp"
#include "ntco/fleet/replicator.hpp"
#include "ntco/net/path.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/serverless/platform.hpp"
#include "ntco/sim/simulator.hpp"

namespace ntco::continuum {
namespace {

/// Jitter-free path spec so every transfer time is exact.
net::PathSpec flat_spec(std::string name, DataRate rate, Duration latency) {
  net::PathSpec s;
  s.name = std::move(name);
  s.up = {rate, latency, 0.0, 0.0};
  s.down = {rate, latency, 0.0, 0.0};
  return s;
}

edgesim::EdgeConfig edge_config(std::size_t servers, double usd_per_hour) {
  edgesim::EdgeConfig cfg;
  cfg.servers = servers;
  cfg.server_speed = Frequency::gigahertz(2.0);
  cfg.infra_cost_per_server_hour = Money::from_usd(usd_per_hour);
  cfg.request_overhead = Duration::millis(2);
  return cfg;
}

serverless::PlatformConfig cloud_config() {
  serverless::PlatformConfig cfg;
  cfg.cold_start_base = Duration::millis(100);
  cfg.spot_mean_time_to_preempt = Duration::zero();  // on-demand worlds
  return cfg;
}

serverless::FunctionSpec cloud_fn() {
  serverless::FunctionSpec fn;
  fn.name = "job";
  fn.memory = DataSize::megabytes(1792);  // one full 2.5 GHz vCPU
  fn.image = DataSize::megabytes(10);
  return fn;
}

JobSpec small_job() {
  JobSpec spec;
  spec.work = Cycles::giga(2);  // 1 s at 2 GHz, 0.8 s at 2.5 GHz
  spec.input = DataSize::megabytes(1);
  spec.output = DataSize::megabytes(1);
  spec.state = DataSize::megabytes(2);
  return spec;
}

TEST(Continuum, EdgeFirstPlacementRunsNearby) {
  sim::Simulator sim;
  edgesim::EdgePlatform edge(sim, edge_config(2, 0.05));
  serverless::Platform cloud(sim, cloud_config());
  const auto fn = cloud.deploy(cloud_fn());
  auto lan = net::make_path(
      flat_spec("lan", DataRate::megabits_per_second(800), Duration::millis(1)));
  auto wan = net::make_path(
      flat_spec("wan", DataRate::megabits_per_second(40), Duration::millis(25)));

  Federation fed(sim);
  fed.add_site(Site(0, "edge", SiteTier::Edge, edge, lan));
  fed.add_site(Site(1, "cloud", SiteTier::Cloud, cloud, fn, wan));

  JobOutcome out;
  fed.submit(small_job(), [&](const JobOutcome& o) { out = o; });
  sim.run();

  EXPECT_EQ(out.first_site, 0u);
  EXPECT_EQ(out.final_site, 0u);
  EXPECT_EQ(out.migrations, 0u);
  // 11 ms up (10 ms serialisation + 1 ms latency) + 2 ms dispatch + 1 s
  // exec + 11 ms down — exact, because nothing here is stochastic.
  EXPECT_EQ(out.completion, Duration::millis(1024));
  EXPECT_EQ(out.exec_total, Duration::seconds(1));
  EXPECT_TRUE(out.deadline_met);
  EXPECT_EQ(fed.stats().spillovers, 0u);
  EXPECT_EQ(fed.live_jobs(), 0u);
}

TEST(Continuum, SaturatedEdgeSpillsToCloud) {
  sim::Simulator sim;
  edgesim::EdgePlatform edge(sim, edge_config(2, 0.05));
  serverless::Platform cloud(sim, cloud_config());
  const auto fn = cloud.deploy(cloud_fn());
  auto lan = net::make_path(
      flat_spec("lan", DataRate::megabits_per_second(800), Duration::millis(1)));
  auto wan = net::make_path(
      flat_spec("wan", DataRate::megabits_per_second(40), Duration::millis(25)));

  Federation fed(sim);
  fed.add_site(Site(0, "edge", SiteTier::Edge, edge, lan));
  fed.add_site(Site(1, "cloud", SiteTier::Cloud, cloud, fn, wan));

  // Both edge servers busy for a long while: utilisation 1.0 >= 0.85.
  edge.submit(Cycles::giga(200), [](const edgesim::EdgeResult&) {});
  edge.submit(Cycles::giga(200), [](const edgesim::EdgeResult&) {});

  JobOutcome out;
  fed.submit(small_job(), [&](const JobOutcome& o) { out = o; });
  sim.run();

  EXPECT_EQ(out.final_site, 1u);
  EXPECT_EQ(fed.stats().spillovers, 1u);
  EXPECT_FALSE(out.cost.is_zero());
}

TEST(Continuum, PriceOverrideRoutesPastExpensiveEdge) {
  sim::Simulator sim;
  // The edge tier wins proximity but bills $10/server-hour; the job has no
  // deadline, so the price-aware override takes the strictly cheaper cloud.
  edgesim::EdgePlatform edge(sim, edge_config(2, 10.0));
  serverless::Platform cloud(sim, cloud_config());
  const auto fn = cloud.deploy(cloud_fn());
  auto lan = net::make_path(
      flat_spec("lan", DataRate::megabits_per_second(800), Duration::millis(1)));
  auto wan = net::make_path(
      flat_spec("wan", DataRate::megabits_per_second(40), Duration::millis(25)));

  Federation fed(sim);
  fed.add_site(Site(0, "edge", SiteTier::Edge, edge, lan));
  fed.add_site(Site(1, "cloud", SiteTier::Cloud, cloud, fn, wan));

  JobOutcome out;
  fed.submit(small_job(), [&](const JobOutcome& o) { out = o; });
  sim.run();

  EXPECT_EQ(out.final_site, 1u);
  EXPECT_EQ(fed.stats().spillovers, 1u);
  EXPECT_LT(out.cost, Money::from_usd(10.0 / 3600.0));  // < 1 edge-second
}

TEST(Continuum, TightDeadlineOverridesPriceAndIsAccounted) {
  sim::Simulator sim;
  edgesim::EdgePlatform edge(sim, edge_config(2, 10.0));
  serverless::Platform cloud(sim, cloud_config());
  const auto fn = cloud.deploy(cloud_fn());
  auto lan = net::make_path(
      flat_spec("lan", DataRate::megabits_per_second(800), Duration::millis(1)));
  // Cloud is cheap but its pipe is slow: 1 MB at 4 Mb/s = 2 s each way.
  auto wan = net::make_path(
      flat_spec("wan", DataRate::megabits_per_second(4), Duration::millis(25)));

  Federation fed(sim);
  fed.add_site(Site(0, "edge", SiteTier::Edge, edge, lan));
  fed.add_site(Site(1, "cloud", SiteTier::Cloud, cloud, fn, wan));

  // ~1.1 s needed via the edge; the 2 s deadline leaves no 1.5x slack for
  // the ~4.9 s cloud detour, so the expensive edge keeps the job and makes
  // the deadline.
  JobSpec spec = small_job();
  spec.deadline = Duration::seconds(2);
  JobOutcome tight;
  fed.submit(spec, [&](const JobOutcome& o) { tight = o; });
  sim.run();
  EXPECT_EQ(tight.final_site, 0u);
  EXPECT_TRUE(tight.deadline_met);
  EXPECT_EQ(fed.stats().deadline_misses, 0u);

  // An impossible deadline is still served, and the miss is counted.
  spec.deadline = Duration::millis(1);
  JobOutcome missed;
  fed.submit(spec, [&](const JobOutcome& o) { missed = o; });
  sim.run();
  EXPECT_FALSE(missed.deadline_met);
  EXPECT_EQ(fed.stats().deadline_misses, 1u);
}

TEST(Continuum, HugeCheckpointStaysPutAfterSpotPreemption) {
  sim::Simulator sim;
  // Spot-backed cloud site that preempts aggressively.
  serverless::PlatformConfig pc = cloud_config();
  pc.spot_mean_time_to_preempt = Duration::millis(100);
  pc.seed = 42;
  serverless::Platform cloud(sim, pc);
  const auto fn = cloud.deploy(cloud_fn());
  edgesim::EdgePlatform edge(sim, edge_config(2, 0.05));
  auto wan = net::make_path(
      flat_spec("wan", DataRate::megabits_per_second(40), Duration::millis(25)));
  auto slow = net::make_path(
      flat_spec("cell", DataRate::megabits_per_second(8), Duration::millis(25)));
  auto link = net::make_path(
      flat_spec("xsite", DataRate::megabits_per_second(8), Duration::millis(5)));

  Federation fed(sim);
  SiteConfig spot_cfg;
  spot_cfg.faas_tier = serverless::Tier::Spot;
  fed.add_site(Site(0, "spot", SiteTier::Cloud, cloud, fn, wan, spot_cfg));
  fed.add_site(Site(1, "edge", SiteTier::Edge, edge, slow));
  fed.set_route(0, 1, link);

  obs::JsonlTraceWriter trace;
  fed.attach_observer(&trace, nullptr);

  // Saturate the edge so placement starts on spot, and keep it saturated
  // past the job's lifetime so re-decisions never prefer moving there.
  edge.submit(Cycles::giga(400), [](const edgesim::EdgeResult&) {});
  edge.submit(Cycles::giga(400), [](const edgesim::EdgeResult&) {});

  // A 50 MB checkpoint over an 8 Mb/s inter-site route costs ~50 s —
  // vastly more than the <= 0.8 s of remaining work — so every preemption
  // decision resolves to staying put and resuming with credit.
  JobSpec spec = small_job();
  spec.state = DataSize::megabytes(50);
  JobOutcome out;
  fed.submit(spec, [&](const JobOutcome& o) { out = o; });
  sim.run();

  EXPECT_EQ(out.final_site, 0u);
  EXPECT_GE(fed.stats().stay_puts, 1u);
  EXPECT_EQ(fed.stats().migrations, 0u);
  EXPECT_EQ(fed.stats().restarts, 0u);
  EXPECT_NE(trace.str().find("continuum.migrate.stay"), std::string::npos);
  // Credited resumes mean total exec sums to one full run regardless of
  // how many times the spot market interrupted it.
  EXPECT_EQ(out.exec_total, Duration::millis(800));
}

TEST(Continuum, GracefulFailureMigratesAndReroutesWhenDestinationDies) {
  sim::Simulator sim;
  edgesim::EdgePlatform edge_a(sim, edge_config(1, 0.05));
  edgesim::EdgePlatform edge_b(sim, edge_config(2, 0.10));
  serverless::Platform cloud(sim, cloud_config());
  const auto fn = cloud.deploy(cloud_fn());
  auto lan_a = net::make_path(
      flat_spec("lanA", DataRate::megabits_per_second(800), Duration::millis(1)));
  auto lan_b = net::make_path(
      flat_spec("lanB", DataRate::megabits_per_second(8), Duration::millis(1)));
  auto wan_c = net::make_path(
      flat_spec("wanC", DataRate::megabits_per_second(8), Duration::millis(25)));
  auto ab = net::make_path(
      flat_spec("a-b", DataRate::megabits_per_second(80), Duration::millis(5)));

  Federation fed(sim);
  fed.add_site(Site(0, "edge-a", SiteTier::Edge, edge_a, lan_a));
  fed.add_site(Site(1, "edge-b", SiteTier::Edge, edge_b, lan_b));
  fed.add_site(Site(2, "cloud", SiteTier::Cloud, cloud, fn, wan_c));
  fed.set_route(0, 1, ab);

  obs::JsonlTraceWriter trace;
  fed.attach_observer(&trace, nullptr);

  JobOutcome out;
  fed.submit(small_job(), [&](const JobOutcome& o) { out = o; });

  // t=300ms: A drains gracefully; the 2 MB checkpoint heads for B (0.2 s
  // on the 80 Mb/s inter-site route beats re-uploading the input at
  // 8 Mb/s). t=400ms: B dies while the state is mid-flight, so the
  // arrival bounces and the job re-places onto the cloud from the UE.
  sim.schedule_at(TimePoint::origin() + Duration::millis(300),
                  [&] { fed.fail_site(0); });
  sim.schedule_at(TimePoint::origin() + Duration::millis(400),
                  [&] { fed.fail_site(1); });
  sim.run();

  EXPECT_EQ(out.first_site, 0u);
  EXPECT_EQ(out.final_site, 2u);
  EXPECT_EQ(fed.stats().migrations, 1u);
  EXPECT_EQ(fed.stats().reroutes, 1u);
  EXPECT_EQ(fed.stats().restarts, 0u);
  EXPECT_NE(trace.str().find("continuum.migrate.begin"), std::string::npos);
  EXPECT_NE(trace.str().find("continuum.migrate.reroute"), std::string::npos);
  // 287 ms rendered on A before the drain + the credited remainder on the
  // 2.5 GHz cloud (800 - 287 ms): the credit survived both hops.
  EXPECT_EQ(out.exec_total, Duration::millis(800));
  EXPECT_EQ(fed.live_jobs(), 0u);
}

TEST(Continuum, LiveMigrationBeatsRestartFromZero) {
  // Same failure, two policies: live migration carries 287 ms of credit
  // over the inter-site route; the ablation re-uploads and re-executes.
  const auto run = [](bool live) {
    sim::Simulator sim;
    edgesim::EdgePlatform edge(sim, edge_config(1, 0.05));
    serverless::Platform cloud(sim, cloud_config());
    const auto fn = cloud.deploy(cloud_fn());
    auto lan = net::make_path(flat_spec(
        "lan", DataRate::megabits_per_second(800), Duration::millis(1)));
    auto wan = net::make_path(flat_spec(
        "wan", DataRate::megabits_per_second(8), Duration::millis(25)));
    auto ac = net::make_path(flat_spec(
        "a-c", DataRate::megabits_per_second(80), Duration::millis(5)));

    FederationConfig cfg;
    cfg.live_migration = live;
    Federation fed(sim, cfg);
    fed.add_site(Site(0, "edge", SiteTier::Edge, edge, lan));
    fed.add_site(Site(1, "cloud", SiteTier::Cloud, cloud, fn, wan));
    fed.set_route(0, 1, ac);

    JobOutcome out;
    fed.submit(small_job(), [&](const JobOutcome& o) { out = o; });
    sim.schedule_at(TimePoint::origin() + Duration::millis(300),
                    [&] { fed.fail_site(0); });
    sim.run();
    EXPECT_EQ(out.final_site, 1u);
    return out;
  };

  const JobOutcome live = run(true);
  const JobOutcome restart = run(false);
  EXPECT_EQ(live.exec_total, Duration::millis(800));      // 287 + 513
  EXPECT_EQ(restart.exec_total, Duration::millis(1087));  // 287 + 800
  EXPECT_LT(live.completion, restart.completion);
}

TEST(Continuum, AbruptFailureParksUntilRestore) {
  sim::Simulator sim;
  edgesim::EdgePlatform edge(sim, edge_config(1, 0.05));
  auto lan = net::make_path(
      flat_spec("lan", DataRate::megabits_per_second(800), Duration::millis(1)));

  Federation fed(sim);
  fed.add_site(Site(0, "edge", SiteTier::Edge, edge, lan));

  obs::JsonlTraceWriter trace;
  fed.attach_observer(&trace, nullptr);

  JobOutcome out;
  bool done = false;
  fed.submit(small_job(), [&](const JobOutcome& o) {
    out = o;
    done = true;
  });
  // Abrupt crash: progress is lost, and with no other site alive the job
  // parks until the site comes back.
  sim.schedule_at(TimePoint::origin() + Duration::millis(300),
                  [&] { fed.fail_site(0, /*graceful=*/false); });
  sim.schedule_at(TimePoint::origin() + Duration::seconds(5),
                  [&] { fed.restore_site(0); });
  sim.run();

  ASSERT_TRUE(done);
  EXPECT_EQ(fed.stats().parked, 1u);
  EXPECT_NE(trace.str().find("continuum.job.parked"), std::string::npos);
  // Credit was dropped (abrupt), so the full exec re-ran after restore.
  EXPECT_EQ(out.exec_total, Duration::millis(1287));  // 287 lost + 1000
  EXPECT_GT(out.completion, Duration::seconds(5));
  EXPECT_EQ(fed.live_jobs(), 0u);
}

TEST(Continuum, CapacityFactorTracksAliveSites) {
  sim::Simulator sim;
  edgesim::EdgePlatform edge(sim, edge_config(1, 0.05));
  serverless::Platform cloud(sim, cloud_config());
  const auto fn = cloud.deploy(cloud_fn());
  auto lan = net::make_path(
      flat_spec("lan", DataRate::megabits_per_second(800), Duration::millis(1)));
  auto wan = net::make_path(
      flat_spec("wan", DataRate::megabits_per_second(40), Duration::millis(25)));

  Federation fed(sim);
  fed.add_site(Site(0, "edge", SiteTier::Edge, edge, lan));
  fed.add_site(Site(1, "cloud", SiteTier::Cloud, cloud, fn, wan));
  EXPECT_TRUE(fed.alive(0));
  EXPECT_TRUE(fed.alive(1));
  fed.fail_site(0);
  EXPECT_FALSE(fed.alive(0));
  EXPECT_TRUE(fed.alive(1));
  fed.fail_site(1);
  EXPECT_FALSE(fed.alive(0));
  EXPECT_FALSE(fed.alive(1));
  fed.restore_site(0);
  EXPECT_TRUE(fed.alive(0));
  EXPECT_FALSE(fed.alive(1));
}

struct PoisonRun {
  FederationStats stats;
  std::vector<JobId> ids;  ///< what submit returned, in offer order
  std::size_t outcomes = 0;
  std::size_t live = 0;
  std::string trace;
  std::optional<std::uint64_t> rejected_counter;
};

/// Two valid jobs offered from simulator events 20 ms apart, with a
/// negative-deadline job offered between them when `poisoned`.
PoisonRun run_with_poison(bool poisoned) {
  sim::Simulator sim;
  edgesim::EdgePlatform edge(sim, edge_config(1, 0.05));
  serverless::Platform cloud(sim, cloud_config());
  const auto fn = cloud.deploy(cloud_fn());
  auto lan = net::make_path(
      flat_spec("lan", DataRate::megabits_per_second(800), Duration::millis(1)));
  auto wan = net::make_path(
      flat_spec("wan", DataRate::megabits_per_second(40), Duration::millis(25)));

  Federation fed(sim);
  fed.add_site(Site(0, "edge", SiteTier::Edge, edge, lan));
  fed.add_site(Site(1, "cloud", SiteTier::Cloud, cloud, fn, wan));
  obs::JsonlTraceWriter trace;
  obs::MetricsRegistry metrics;
  fed.attach_observer(&trace, &metrics);

  PoisonRun out;
  const auto offer = [&](Duration at, Duration deadline) {
    sim.schedule_at(TimePoint::origin() + at, [&out, &fed, deadline] {
      JobSpec spec = small_job();
      spec.deadline = deadline;
      out.ids.push_back(
          fed.submit(spec, [&out](const JobOutcome&) { ++out.outcomes; }));
    });
  };
  offer(Duration::millis(10), Duration::seconds(30));
  if (poisoned) offer(Duration::millis(20), -Duration::seconds(1));
  offer(Duration::millis(30), Duration::seconds(30));
  sim.run();
  fed.publish(metrics);

  out.stats = fed.stats();
  out.live = fed.live_jobs();
  out.trace = trace.str();
  if (const obs::Counter* c = metrics.find_counter("continuum.rejected"))
    out.rejected_counter = c->value();
  return out;
}

TEST(Continuum, NegativeDeadlineJobIsRejected) {
  const PoisonRun clean = run_with_poison(false);
  const PoisonRun poisoned = run_with_poison(true);

  // The bad job takes no id and its callback never fires; the valid jobs
  // keep their ids.
  EXPECT_EQ(clean.ids, (std::vector<JobId>{1, 2}));
  EXPECT_EQ(poisoned.ids, (std::vector<JobId>{1, 0, 2}));
  EXPECT_EQ(poisoned.outcomes, 2u);
  EXPECT_EQ(poisoned.live, 0u);

  EXPECT_EQ(clean.stats.rejected, 0u);
  EXPECT_EQ(poisoned.stats.rejected, 1u);
  // No counter row until the first rejection; then one.
  EXPECT_FALSE(clean.rejected_counter.has_value());
  EXPECT_EQ(poisoned.rejected_counter, std::optional<std::uint64_t>(1));

  // The trace is the clean one plus the rejection row.
  const std::string row =
      R"({"t_us":20000,"ev":"continuum.job.rejected","deadline":-1000000})"
      "\n";
  const std::size_t at = poisoned.trace.find(row);
  ASSERT_NE(at, std::string::npos);
  std::string without = poisoned.trace;
  without.erase(at, row.size());
  EXPECT_EQ(without, clean.trace);

  // Every other field equals the clean run's, and the ledger closes:
  // offered = submitted + rejected, submitted = completed + live.
  const FederationStats& a = clean.stats;
  const FederationStats& b = poisoned.stats;
  EXPECT_EQ(a.submitted, 2u);
  EXPECT_EQ(b.submitted, a.submitted);
  EXPECT_EQ(b.submitted + b.rejected, poisoned.ids.size());
  EXPECT_EQ(b.completed + poisoned.live, b.submitted);
  EXPECT_EQ(b.completed, a.completed);
  EXPECT_EQ(b.deadline_misses, a.deadline_misses);
  EXPECT_EQ(b.migrations, a.migrations);
  EXPECT_EQ(b.restarts, a.restarts);
  EXPECT_EQ(b.stay_puts, a.stay_puts);
  EXPECT_EQ(b.spillovers, a.spillovers);
  EXPECT_EQ(b.reroutes, a.reroutes);
  EXPECT_EQ(b.parked, a.parked);
  EXPECT_EQ(b.total_completion, a.total_completion);
  EXPECT_EQ(b.total_exec, a.total_exec);
  EXPECT_EQ(b.total_cost, a.total_cost);
}

// Fleet determinism: a sharded continuum run (placements, a failure wave,
// migrations, restores) must merge to byte-identical traces at 1 and 8
// workers. Suite name starts with "Fleet" so tools/ci.sh reruns it under
// ThreadSanitizer.
TEST(FleetContinuum, MigrationTracesByteIdenticalAcrossWorkerCounts) {
  const auto run_fleet = [](std::size_t threads) {
    fleet::Replicator fleet(2024, threads);
    return fleet.reduce(
        8, std::string{},
        [](fleet::ShardContext& ctx) {
          sim::Simulator sim;
          edgesim::EdgePlatform edge(sim, edge_config(2, 0.05));
          serverless::Platform cloud(sim, cloud_config());
          const auto fn = cloud.deploy(cloud_fn());
          auto lan = net::make_path(flat_spec(
              "lan", DataRate::megabits_per_second(800), Duration::millis(1)));
          auto wan = net::make_path(flat_spec(
              "wan", DataRate::megabits_per_second(8), Duration::millis(25)));
          auto xs = net::make_path(flat_spec(
              "xs", DataRate::megabits_per_second(80), Duration::millis(5)));

          Federation fed(sim);
          fed.add_site(Site(0, "edge", SiteTier::Edge, edge, lan));
          fed.add_site(Site(1, "cloud", SiteTier::Cloud, cloud, fn, wan));
          fed.set_route(0, 1, xs);

          obs::JsonlTraceWriter trace;
          fed.attach_observer(&trace, nullptr);

          const std::int64_t jobs = ctx.rng.uniform_int(3, 6);
          for (std::int64_t i = 0; i < jobs; ++i) {
            JobSpec spec = small_job();
            spec.work = Cycles::giga(
                static_cast<std::uint64_t>(ctx.rng.uniform_int(1, 4)));
            fed.submit(spec, [](const JobOutcome&) {});
          }
          sim.schedule_at(TimePoint::origin() + Duration::millis(300),
                          [&] { fed.fail_site(0); });
          sim.schedule_at(TimePoint::origin() + Duration::seconds(2),
                          [&] { fed.restore_site(0); });
          sim.run();
          return trace.str();
        },
        [](std::string& acc, std::string&& shard_trace, std::size_t) {
          acc += shard_trace;
        });
  };

  const std::string t1 = run_fleet(1);
  const std::string t8 = run_fleet(8);
  EXPECT_FALSE(t1.empty());
  EXPECT_NE(t1.find("continuum.migrate."), std::string::npos);
  EXPECT_EQ(t1, t8);
}

}  // namespace
}  // namespace ntco::continuum
