// F14 — Edge–cloud continuum: federated placement with live job migration.
//
// One region serves a diurnal population of delay-tolerant jobs from two
// small edge sites (2 servers each, cheap per-server-hour) federated with
// an elastic serverless cloud whose execution price triples during
// daytime. At hour 10 one edge site drains for a two-hour maintenance
// window (graceful failure) and comes back at hour 12 — right at peak
// load, when the surviving site alone cannot carry the region.
//
// Four policies over the identical arrival tape:
//   continuum   edge-first placement, spillover to cloud, live migration
//   cont-restart the same, but preempted jobs restart from zero (ablation)
//   edge-only   the two edge sites federated with no cloud behind them
//   cloud-only  everything on serverless, no edge infrastructure
//
// Expected shape: continuum beats edge-only on deadline misses under the
// failure (the cloud absorbs the displaced peak) and beats cloud-only on
// cost (edge server-seconds at $0.06/h vs daytime serverless at ~3x that);
// live migration beats restart-from-zero on mean completion in the
// spot-heavy regime of the second table, where preemptions are frequent
// enough that losing earned execution dominates completion time.
//
// Scale & determinism: each of the 8 shards owns its Simulator, platforms,
// paths, and Federation; shards merge in shard order, so stdout and every
// NTCO_BENCH_OUT artifact are byte-identical at any NTCO_THREADS (gated in
// tools/ci.sh step 3). Tracing attaches on shard 0 only to bound the
// artifact.

#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ntco/continuum/federation.hpp"
#include "ntco/fleet/replicator.hpp"
#include "ntco/stats/percentile.hpp"

using namespace ntco;

namespace {

constexpr std::size_t kShards = 8;

// Jobs offered per hour in one shard's region (diurnal tape; the 10-12
// maintenance window lands on the plateau).
constexpr int kHourly[24] = {5,  4,  4,  4,  4,  5,  15, 25, 35, 45, 50, 50,
                             48, 48, 45, 42, 40, 35, 30, 25, 20, 15, 10, 8};

const Duration kDeadline = Duration::minutes(15);

struct Job {
  Duration at;      // arrival offset from midnight
  Cycles work;      // 240-720 Gcyc: 2-6 min on a 2 GHz edge server
  DataSize input;
};

std::vector<Job> arrival_tape(fleet::ShardContext& ctx) {
  std::vector<Job> jobs;
  for (int h = 0; h < 24; ++h)
    for (int j = 0; j < kHourly[h]; ++j)
      jobs.push_back(
          {Duration::hours(h) + Duration::seconds(ctx.rng.uniform_int(0, 3599)),
           Cycles::giga(
               static_cast<std::uint64_t>(ctx.rng.uniform_int(240, 720))),
           DataSize::megabytes(
               static_cast<std::uint64_t>(ctx.rng.uniform_int(2, 8)))});
  return jobs;
}

net::PathSpec flat_spec(std::string name, DataRate rate, Duration latency) {
  net::PathSpec s;
  s.name = std::move(name);
  s.up = {rate, latency, 0.0, 0.0};
  s.down = {rate, latency, 0.0, 0.0};
  return s;
}

edgesim::EdgeConfig edge_site_config() {
  edgesim::EdgeConfig cfg;
  cfg.servers = 2;
  cfg.server_speed = Frequency::gigahertz(2.0);
  cfg.infra_cost_per_server_hour = Money::from_usd(0.06);
  cfg.request_overhead = Duration::millis(2);
  return cfg;
}

serverless::PlatformConfig cloud_cfg() {
  serverless::PlatformConfig cfg;
  cfg.spot_mean_time_to_preempt = Duration::zero();
  // Daytime demand triples the serverless execution price — the diurnal
  // tariff the continuum arbitrages by keeping the plateau on the edge.
  cfg.price_windows = {{8, 20, 3.0}};
  return cfg;
}

serverless::FunctionSpec cloud_fn_spec() {
  serverless::FunctionSpec fn;
  fn.name = "job";
  fn.memory = DataSize::megabytes(1792);
  fn.image = DataSize::megabytes(20);
  return fn;
}

enum class Policy { Continuum, ContinuumRestart, EdgeOnly, CloudOnly };

struct WorldResult {
  stats::PercentileSample completion;  // seconds
  std::uint64_t completed = 0;
  std::uint64_t misses = 0;
  double cost_usd = 0.0;
  std::uint64_t migrations = 0;
  std::uint64_t restarts = 0;
  std::uint64_t spillovers = 0;
  std::uint64_t parked = 0;

  void merge(const WorldResult& o) {
    completion.merge(o.completion);
    completed += o.completed;
    misses += o.misses;
    cost_usd += o.cost_usd;
    migrations += o.migrations;
    restarts += o.restarts;
    spillovers += o.spillovers;
    parked += o.parked;
  }
};

WorldResult run_world(Policy policy, const std::vector<Job>& tape,
                      obs::JsonlTraceWriter* trace) {
  sim::Simulator sim;
  edgesim::EdgePlatform edge_a(sim, edge_site_config());
  edgesim::EdgePlatform edge_b(sim, edge_site_config());
  serverless::Platform cloud(sim, cloud_cfg());
  const auto fn = cloud.deploy(cloud_fn_spec());

  auto lan_a = net::make_path(
      flat_spec("lanA", DataRate::megabits_per_second(800), Duration::millis(1)));
  auto lan_b = net::make_path(
      flat_spec("lanB", DataRate::megabits_per_second(800), Duration::millis(1)));
  auto wan = net::make_path(
      flat_spec("wan", DataRate::megabits_per_second(100), Duration::millis(25)));
  auto ab = net::make_path(
      flat_spec("a-b", DataRate::megabits_per_second(200), Duration::millis(5)));
  auto ba = net::make_path(
      flat_spec("b-a", DataRate::megabits_per_second(200), Duration::millis(5)));
  auto ac = net::make_path(
      flat_spec("a-c", DataRate::megabits_per_second(100), Duration::millis(20)));
  auto bc = net::make_path(
      flat_spec("b-c", DataRate::megabits_per_second(100), Duration::millis(20)));

  const bool has_edge = policy != Policy::CloudOnly;
  const bool has_cloud =
      policy == Policy::Continuum || policy == Policy::ContinuumRestart;

  continuum::FederationConfig fcfg;
  fcfg.live_migration = policy != Policy::ContinuumRestart;
  continuum::Federation fed(sim, fcfg);
  if (has_edge) {
    fed.add_site(continuum::Site(0, "edge-a", continuum::SiteTier::Edge,
                                 edge_a, lan_a));
    fed.add_site(continuum::Site(1, "edge-b", continuum::SiteTier::Edge,
                                 edge_b, lan_b));
    fed.set_route(0, 1, ab);
    fed.set_route(1, 0, ba);
  }
  if (has_cloud || policy == Policy::CloudOnly) {
    const auto c = fed.add_site(continuum::Site(
        static_cast<continuum::SiteId>(fed.site_count()), "cloud",
        continuum::SiteTier::Cloud, cloud, fn, wan));
    if (has_edge) {
      fed.set_route(0, c, ac);
      fed.set_route(1, c, bc);
    }
  }
  if (trace != nullptr) fed.attach_observer(trace, nullptr);

  WorldResult out;
  for (const Job& j : tape) {
    sim.schedule_at(TimePoint::origin() + j.at, [&, j] {
      continuum::JobSpec spec;
      spec.work = j.work;
      spec.input = j.input;
      spec.output = DataSize::megabytes(2);
      spec.state = DataSize::megabytes(4);
      spec.deadline = kDeadline;
      fed.submit(spec, [&](const continuum::JobOutcome& o) {
        ++out.completed;
        if (!o.deadline_met) ++out.misses;
        out.completion.add(o.completion.to_seconds());
        out.cost_usd += o.cost.to_usd();
      });
    });
  }

  // Maintenance window: edge-a drains gracefully at 10:00, back at 12:00.
  if (has_edge) {
    sim.schedule_at(TimePoint::origin() + Duration::hours(10),
                    [&] { fed.fail_site(0); });
    sim.schedule_at(TimePoint::origin() + Duration::hours(12),
                    [&] { fed.restore_site(0); });
  }
  sim.run();

  out.migrations = fed.stats().migrations;
  out.restarts = fed.stats().restarts;
  out.spillovers = fed.stats().spillovers;
  out.parked = fed.stats().parked;
  return out;
}

// --- Spot-heavy migration ablation (second table) -------------------------
//
// 100 one-minute jobs land on a spot-priced serverless site whose mean
// time-to-preempt (2 min) is of the same order as the job length, next to
// an on-demand sibling. With live migration the federation resumes each
// preempted job with its credit (usually staying put); the ablation loses
// the credit on every preemption and re-earns it from zero.

WorldResult run_spot_world(bool live, const std::vector<Job>& tape) {
  sim::Simulator sim;
  serverless::PlatformConfig pcfg;
  pcfg.spot_mean_time_to_preempt = Duration::seconds(120);
  pcfg.seed = 0xF14;
  serverless::Platform cloud(sim, pcfg);
  const auto fn = cloud.deploy(cloud_fn_spec());
  auto wan_a = net::make_path(
      flat_spec("wanA", DataRate::megabits_per_second(100), Duration::millis(25)));
  auto wan_b = net::make_path(
      flat_spec("wanB", DataRate::megabits_per_second(100), Duration::millis(25)));
  auto ab = net::make_path(
      flat_spec("s-o", DataRate::megabits_per_second(200), Duration::millis(5)));

  continuum::FederationConfig fcfg;
  fcfg.live_migration = live;
  continuum::Federation fed(sim, fcfg);
  continuum::SiteConfig spot_cfg;
  spot_cfg.faas_tier = serverless::Tier::Spot;
  fed.add_site(continuum::Site(0, "spot", continuum::SiteTier::Cloud, cloud,
                               fn, wan_a, spot_cfg));
  fed.add_site(continuum::Site(1, "on-demand", continuum::SiteTier::Cloud,
                               cloud, fn, wan_b));
  fed.set_route(0, 1, ab);

  WorldResult out;
  for (const Job& j : tape) {
    sim.schedule_at(TimePoint::origin() + j.at, [&, j] {
      continuum::JobSpec spec;
      spec.work = Cycles::giga(150);  // 60 s at the 2.5 GHz cloud
      spec.input = DataSize::megabytes(2);
      spec.output = DataSize::megabytes(1);
      spec.state = DataSize::megabytes(4);
      fed.submit(spec, [&](const continuum::JobOutcome& o) {
        ++out.completed;
        out.completion.add(o.completion.to_seconds());
        out.cost_usd += o.cost.to_usd();
      });
    });
  }
  sim.run();
  out.migrations = fed.stats().migrations + fed.stats().stay_puts;
  out.restarts = fed.stats().restarts + fed.stats().stay_puts * (live ? 0 : 1);
  return out;
}

std::vector<Job> spot_tape(fleet::ShardContext& ctx) {
  std::vector<Job> jobs;
  for (int j = 0; j < 100; ++j)
    jobs.push_back({Duration::seconds(ctx.rng.uniform_int(0, 3599)),
                    Cycles::giga(150), DataSize::megabytes(2)});
  return jobs;
}

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::Continuum: return "continuum";
    case Policy::ContinuumRestart: return "cont-restart";
    case Policy::EdgeOnly: return "edge-only";
    default: return "cloud-only";
  }
}

}  // namespace

int main() {
  bench::ReportWriter report(
      "F14", "Edge-cloud continuum: federated placement + live migration",
      "continuum < edge-only on deadline misses under the maintenance "
      "window, < cloud-only on cost under the diurnal tariff; live "
      "migration < restart-from-zero on mean completion in the spot "
      "regime");

  obs::JsonlTraceWriter trace;
  const bool observe = report.machine_output();

  struct ShardOut {
    WorldResult by_policy[4];
    obs::JsonlTraceWriter trace;
  };

  fleet::Replicator rep(14);
  auto merged = rep.reduce(
      kShards, ShardOut{},
      [&](fleet::ShardContext& ctx) {
        ShardOut out;
        const auto tape = arrival_tape(ctx);
        for (int p = 0; p < 4; ++p)
          out.by_policy[p] = run_world(
              static_cast<Policy>(p), tape,
              observe && ctx.shard == 0 && p == 0 ? &out.trace : nullptr);
        return out;
      },
      [](ShardOut& acc, ShardOut&& shard, std::size_t) {
        for (int p = 0; p < 4; ++p)
          acc.by_policy[p].merge(shard.by_policy[p]);
        acc.trace.append_from(shard.trace);
      });
  trace.append_from(merged.trace);

  stats::Table t({"policy", "completed", "miss %", "mean (s)", "p95 (s)",
                  "cost ($)", "migrations", "restarts", "spillovers",
                  "parked"});
  for (int p = 0; p < 4; ++p) {
    const WorldResult& w = merged.by_policy[p];
    t.add_row({policy_name(static_cast<Policy>(p)),
               std::to_string(w.completed),
               stats::cell(100.0 * static_cast<double>(w.misses) /
                               static_cast<double>(w.completed), 2),
               stats::cell(w.completion.mean(), 1),
               stats::cell(w.completion.p95(), 1), stats::cell(w.cost_usd, 2),
               std::to_string(w.migrations), std::to_string(w.restarts),
               std::to_string(w.spillovers), std::to_string(w.parked)});
  }
  t.set_title(
      "F14: diurnal day (602 jobs/shard, 8 shards; 240-720 Gcyc, 15 min "
      "deadline); edge-a in maintenance 10:00-12:00; edge $0.06/server-h, "
      "serverless 3x price 08:00-20:00");
  t.set_caption(
      "continuum spills the displaced peak to the cloud (few misses, "
      "cheap off-peak edges); edge-only eats the backlog as deadline "
      "misses; cloud-only pays the daytime tariff for every job; shards "
      "merge in shard order (byte-stable at any NTCO_THREADS)");
  report.emit(t);

  fleet::Replicator srep(15);
  struct SpotOut {
    WorldResult live, restart;
  };
  auto spot = srep.reduce(
      kShards, SpotOut{},
      [&](fleet::ShardContext& ctx) {
        const auto tape = spot_tape(ctx);
        return SpotOut{run_spot_world(true, tape),
                       run_spot_world(false, tape)};
      },
      [](SpotOut& acc, SpotOut&& shard, std::size_t) {
        acc.live.merge(shard.live);
        acc.restart.merge(shard.restart);
      });

  stats::Table s({"arm", "completed", "mean (s)", "p95 (s)", "cost ($)"});
  s.add_row({"live migration", std::to_string(spot.live.completed),
             stats::cell(spot.live.completion.mean(), 1),
             stats::cell(spot.live.completion.p95(), 1),
             stats::cell(spot.live.cost_usd, 2)});
  s.add_row({"restart-from-zero", std::to_string(spot.restart.completed),
             stats::cell(spot.restart.completion.mean(), 1),
             stats::cell(spot.restart.completion.p95(), 1),
             stats::cell(spot.restart.cost_usd, 2)});
  s.set_title(
      "F14 ablation: 100 jobs/shard x 60 s on a spot site (mean "
      "time-to-preempt 120 s) next to an on-demand sibling");
  s.set_caption(
      "with credit carried across preemptions every interruption costs "
      "only the resume overhead; without it, each preemption re-earns the "
      "whole prefix");
  report.emit(s);
  report.emit_trace(trace);
  return 0;
}
