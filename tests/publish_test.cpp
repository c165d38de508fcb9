// Each layer keeps one ledger, its stats struct, and publish() turns that
// ledger into the layer's "*.counter" registry rows. These tests publish
// every publisher after each simulator event of a scenario and compare the
// rows with the stats fields they are named after. Each test also checks
// that its scenarios tell every two counter names apart (the two values
// differ after some event), so a publish() that wrote one field under
// another's name fails it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "ntco/app/workloads.hpp"
#include "ntco/broker/broker.hpp"
#include "ntco/continuum/federation.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/edgesim/edge_platform.hpp"
#include "ntco/net/flaky_link.hpp"
#include "ntco/net/path.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/sched/deferred_scheduler.hpp"
#include "ntco/serverless/platform.hpp"
#include "ntco/sim/simulator.hpp"

namespace ntco {
namespace {

/// Counter rows by name.
using Rows = std::map<std::string, std::uint64_t>;

/// The counter rows of a registry's CSV dump ("metric,kind,field,value").
Rows counter_rows(const obs::MetricsRegistry& metrics) {
  Rows rows;
  std::istringstream csv(metrics.to_csv());
  std::string line;
  std::getline(csv, line);  // header
  while (std::getline(csv, line)) {
    const std::size_t c1 = line.find(',');
    const std::size_t c2 = line.find(',', c1 + 1);
    const std::size_t c3 = line.find(',', c2 + 1);
    if (line.compare(c1 + 1, c2 - c1 - 1, "counter") != 0) continue;
    rows[line.substr(0, c1)] = std::stoull(line.substr(c3 + 1));
  }
  return rows;
}

/// Publishes a layer and checks the rows against `expected(layer)`, the
/// stats fields the counters are named after; remembers every expectation.
class LedgerCheck {
 public:
  template <class Layer, class Expected>
  void check(const Layer& layer, const Expected& expected) {
    obs::MetricsRegistry metrics;
    layer.publish(metrics);
    const Rows want = expected(layer);
    EXPECT_EQ(counter_rows(metrics), want);
    seen_.push_back(want);
  }

  /// Checks after every event `sim` fires until it drains.
  template <class Layer, class Expected>
  void check_each_event(sim::Simulator& sim, const Layer& layer,
                        const Expected& expected) {
    check(layer, expected);
    while (sim.step()) check(layer, expected);
  }

  /// Every two names differ in some checked publish (an absent row reads
  /// 0): a publish() that swapped them would have failed check().
  void expect_names_told_apart() const {
    std::set<std::string> names;
    for (const Rows& rows : seen_)
      for (const auto& [name, value] : rows) names.insert(name);
    const auto value = [](const Rows& rows, const std::string& name) {
      const auto it = rows.find(name);
      return it == rows.end() ? std::uint64_t{0} : it->second;
    };
    for (auto a = names.begin(); a != names.end(); ++a)
      for (auto b = std::next(a); b != names.end(); ++b)
        EXPECT_TRUE(std::any_of(seen_.begin(), seen_.end(),
                                [&](const Rows& rows) {
                                  return value(rows, *a) != value(rows, *b);
                                }))
            << *a << " and " << *b << " never differ";
  }

 private:
  std::vector<Rows> seen_;
};

// ---------------------------------------------------------------- serverless

Rows platform_rows(const serverless::Platform& p) {
  const serverless::PlatformStats s = p.stats();
  return {{"serverless.invocations", s.invocations},
          {"serverless.cold_starts", s.cold_starts},
          {"serverless.warm_reuses", s.warm_reuses},
          {"serverless.throttled", s.throttled},
          {"serverless.preemptions", s.preemptions}};
}

TEST(LedgerPublish, PlatformCountersAreItsStats) {
  // One slot of account concurrency: six invocations queue behind the
  // first, which a checkpoint cuts short; its instance is torn down, so
  // the next one starts cold and the last four reuse that instance.
  sim::Simulator sim;
  serverless::PlatformConfig cfg;
  cfg.account_concurrency = 1;
  serverless::Platform platform(sim, cfg);
  serverless::FunctionSpec spec;
  spec.name = "fn";
  const serverless::FunctionId fn = platform.deploy(spec);
  std::vector<serverless::InvocationId> ids;
  for (int i = 0; i < 6; ++i)
    ids.push_back(platform.invoke(fn, Cycles::giga(1),
                                  [](const serverless::InvocationResult&) {}));
  sim.schedule_after(Duration::millis(500),
                     [&] { EXPECT_TRUE(platform.checkpoint_preempt(ids[0])); });

  LedgerCheck ledger;
  ledger.check_each_event(sim, platform, platform_rows);
  const serverless::PlatformStats s = platform.stats();
  EXPECT_EQ(s.invocations, 6u);
  EXPECT_EQ(s.throttled, 5u);
  EXPECT_EQ(s.cold_starts, 2u);
  EXPECT_EQ(s.warm_reuses, 4u);
  EXPECT_EQ(s.preemptions, 1u);
  ledger.expect_names_told_apart();
}

// --------------------------------------------------------------------- core

Rows controller_rows(const core::OffloadController& c) {
  const core::ControllerStats& s = c.stats();
  return {{"core.runs", s.runs},
          {"core.run_failures", s.run_failures},
          {"core.local_fallbacks", s.local_fallbacks},
          {"core.transfer_failures", s.transfer_failures},
          {"core.plan_deploys", s.plan_deploys},
          {"core.plan_reuses", s.plan_reuses}};
}

/// Wi-Fi whose uplink and downlink each lose half their attempts.
net::NetworkPath flaky_wifi(std::uint64_t seed) {
  const net::TechProfile p = net::profile_wifi();
  return net::NetworkPath(
      "flaky-wifi",
      std::make_unique<net::FlakyLink>(
          std::make_unique<net::FixedLink>(p.one_way_latency, p.uplink), 0.5,
          Duration::seconds(2), Rng(seed)),
      std::make_unique<net::FlakyLink>(
          std::make_unique<net::FixedLink>(p.one_way_latency, p.downlink),
          0.5, Duration::seconds(2), Rng(seed + 1)));
}

TEST(LedgerPublish, ControllerCountersAreItsStats) {
  sim::Simulator sim;
  serverless::Platform platform(sim, {});
  device::Device ue(device::budget_phone());
  net::NetworkPath path = flaky_wifi(11);
  core::OffloadController controller(
      sim, platform, ue, path,
      core::ControllerConfig{partition::Objective::latency()});
  const partition::MinCutPartitioner mincut;
  const auto graphs = app::workloads::all();

  LedgerCheck ledger;
  for (std::size_t i = 0; i < 16; ++i) {
    const app::TaskGraph& g = graphs[i % graphs.size()];
    const core::DeploymentPlan plan = controller.prepare(g, mincut);
    controller.execute_async(plan, g, [](const core::ExecutionReport&) {});
    ledger.check_each_event(sim, controller, controller_rows);
  }
  const core::ControllerStats& s = controller.stats();
  EXPECT_EQ(s.runs, 16u);
  EXPECT_EQ(s.plan_deploys + s.plan_reuses, 16u);
  EXPECT_GT(s.run_failures, 0u);
  EXPECT_GT(s.local_fallbacks, 0u);
  ledger.expect_names_told_apart();
}

// -------------------------------------------------------------------- sched

Rows deferred_rows(const sched::DeferredExecutor& e) {
  const sched::DeferredReport& r = e.report();
  Rows rows{{"sched.jobs", r.jobs},
            {"sched.deadline_misses", r.deadline_misses},
            {"sched.spot_attempts", r.spot_attempts},
            {"sched.spot_preemptions", r.spot_preemptions},
            {"sched.fallbacks", r.fallbacks}};
  if (r.rejected > 0) rows["sched.rejected"] = r.rejected;
  return rows;
}

TEST(LedgerPublish, DeferredExecutorCountersAreItsReport) {
  // 40 s jobs on a spot tier preempting every 20 s on average: roomy
  // slack retries on spot, tighter slack falls back to on-demand, and the
  // tightest misses its deadline.
  sim::Simulator sim;
  serverless::PlatformConfig pcfg;
  pcfg.spot_mean_time_to_preempt = Duration::seconds(20);
  pcfg.seed = 5;
  serverless::Platform platform(sim, pcfg);
  const serverless::FunctionId fn = platform.deploy(
      {"job", DataSize::megabytes(1792), DataSize::megabytes(10)});
  sched::DeferredExecutor exec(
      sim, platform, fn,
      sched::DeferredScheduler(platform, {sched::Policy::Immediate,
                                          sched::TierPolicy::SpotWithFallback}));
  const Duration slacks[] = {
      Duration::minutes(30), Duration::minutes(10), Duration::minutes(4),
      Duration::minutes(3),  Duration::seconds(90), Duration::seconds(30),
      Duration::seconds(-1), Duration::seconds(20), Duration::seconds(-5)};
  for (std::size_t i = 0; i < std::size(slacks); ++i)
    exec.submit({"job" + std::to_string(i), Cycles::giga(100), slacks[i]});

  LedgerCheck ledger;
  ledger.check_each_event(sim, exec, deferred_rows);
  const sched::DeferredReport& r = exec.report();
  EXPECT_EQ(r.rejected, 2u);
  EXPECT_EQ(r.jobs, 7u);
  EXPECT_GT(r.spot_preemptions, 0u);
  EXPECT_GT(r.fallbacks, 0u);
  EXPECT_GT(r.deadline_misses, 0u);
  ledger.expect_names_told_apart();
}

// ---------------------------------------------------------------- continuum

Rows federation_rows(const continuum::Federation& f) {
  const continuum::FederationStats& s = f.stats();
  Rows rows{{"continuum.jobs", s.submitted},
            {"continuum.completed", s.completed},
            {"continuum.deadline_misses", s.deadline_misses},
            {"continuum.migrations", s.migrations},
            {"continuum.restarts", s.restarts},
            {"continuum.stay_puts", s.stay_puts},
            {"continuum.spillovers", s.spillovers},
            {"continuum.reroutes", s.reroutes},
            {"continuum.parked", s.parked}};
  if (s.rejected > 0) rows["continuum.rejected"] = s.rejected;
  return rows;
}

/// Jitter-free path: every transfer time is exact.
net::NetworkPath flat_path(const char* name, std::uint64_t mbps,
                           Duration latency) {
  net::PathSpec s;
  s.name = name;
  s.up = {DataRate::megabits_per_second(mbps), latency, 0.0, 0.0};
  s.down = s.up;
  return net::make_path(s);
}

edgesim::EdgeConfig edge_config(std::size_t servers) {
  edgesim::EdgeConfig cfg;
  cfg.servers = servers;
  cfg.server_speed = Frequency::gigahertz(2.0);
  cfg.infra_cost_per_server_hour = Money::from_usd(0.05);
  cfg.request_overhead = Duration::millis(2);
  return cfg;
}

/// Two edge sites (a: one server, b: two) and a cloud, with an a→b
/// migration route; the cloud runs on spot when `spot` is set.
struct FederationWorld {
  sim::Simulator sim;
  edgesim::EdgePlatform edge_a{sim, edge_config(1)};
  edgesim::EdgePlatform edge_b{sim, edge_config(2)};
  serverless::Platform cloud;
  net::NetworkPath lan_a = flat_path("lanA", 800, Duration::millis(1));
  net::NetworkPath lan_b = flat_path("lanB", 8, Duration::millis(1));
  net::NetworkPath wan = flat_path("wan", 8, Duration::millis(25));
  net::NetworkPath ab = flat_path("a-b", 80, Duration::millis(5));
  continuum::Federation fed;

  FederationWorld(continuum::FederationConfig cfg, bool spot)
      : cloud(sim, cloud_config(spot)), fed(sim, cfg) {
    serverless::FunctionSpec fn;
    fn.name = "job";
    fn.memory = DataSize::megabytes(1792);
    fn.image = DataSize::megabytes(10);
    continuum::SiteConfig cloud_site;
    if (spot) cloud_site.faas_tier = serverless::Tier::Spot;
    fed.add_site(continuum::Site(0, "edge-a", continuum::SiteTier::Edge,
                                 edge_a, lan_a));
    fed.add_site(continuum::Site(1, "edge-b", continuum::SiteTier::Edge,
                                 edge_b, lan_b));
    fed.add_site(continuum::Site(2, "cloud", continuum::SiteTier::Cloud, cloud,
                                 cloud.deploy(fn), wan, cloud_site));
    fed.set_route(0, 1, ab);
  }

  static serverless::PlatformConfig cloud_config(bool spot) {
    serverless::PlatformConfig cfg;
    cfg.cold_start_base = Duration::millis(100);
    cfg.spot_mean_time_to_preempt =
        spot ? Duration::millis(100) : Duration::zero();
    cfg.seed = 42;
    return cfg;
  }

  /// Submits a 2 Gcyc job (1 s on an edge server) at `at`.
  void offer(Duration at, Duration deadline, DataSize state) {
    sim.schedule_at(TimePoint::origin() + at, [this, deadline, state] {
      continuum::JobSpec spec;
      spec.work = Cycles::giga(2);
      spec.input = DataSize::megabytes(1);
      spec.output = DataSize::megabytes(1);
      spec.state = state;
      spec.deadline = deadline;
      fed.submit(spec, [](const continuum::JobOutcome&) {});
    });
  }
  void at(Duration t, std::function<void()> fn) {
    sim.schedule_at(TimePoint::origin() + t, std::move(fn));
  }
};

TEST(LedgerPublish, FederationCountersAreItsStats) {
  LedgerCheck ledger;
  const DataSize small_state = DataSize::megabytes(2);
  {
    // Graceful failures: edge a drains into b (a migration), b dies with
    // the state in flight (a reroute to the cloud). While both edges are
    // down, a job with a 1 ms deadline misses it and one with a negative
    // deadline is rejected.
    FederationWorld w({}, /*spot=*/false);
    w.offer(Duration::zero(), Duration::seconds(30), small_state);
    w.at(Duration::millis(300), [&w] { w.fed.fail_site(0); });
    w.at(Duration::millis(400), [&w] { w.fed.fail_site(1); });
    w.offer(Duration::millis(500), Duration::millis(1), small_state);
    w.offer(Duration::millis(600), -Duration::seconds(1), small_state);
    w.at(Duration::seconds(20), [&w] {
      w.fed.restore_site(0);
      w.fed.restore_site(1);
    });
    w.offer(Duration::seconds(21), Duration::zero(), small_state);
    ledger.check_each_event(w.sim, w.fed, federation_rows);
    const continuum::FederationStats& st = w.fed.stats();
    EXPECT_EQ(st.migrations, 1u);
    EXPECT_EQ(st.reroutes, 1u);
    EXPECT_EQ(st.deadline_misses, 1u);
    EXPECT_EQ(st.rejected, 1u);
  }
  {
    // Without live migration a drained job restarts elsewhere; an abrupt
    // failure of every site parks the next job until a restore.
    continuum::FederationConfig cfg;
    cfg.live_migration = false;
    FederationWorld w(cfg, /*spot=*/false);
    w.offer(Duration::zero(), Duration::zero(), small_state);
    w.at(Duration::millis(300), [&w] { w.fed.fail_site(0); });
    w.at(Duration::seconds(10), [&w] {
      for (continuum::SiteId s = 0; s < 3; ++s)
        w.fed.fail_site(s, /*graceful=*/false);
    });
    w.offer(Duration::seconds(11), Duration::zero(), small_state);
    w.at(Duration::seconds(15), [&w] {
      for (continuum::SiteId s = 0; s < 3; ++s) w.fed.restore_site(s);
    });
    ledger.check_each_event(w.sim, w.fed, federation_rows);
    EXPECT_EQ(w.fed.stats().restarts, 1u);
    EXPECT_EQ(w.fed.stats().parked, 1u);
  }
  {
    // Busy edges spill the job onto a spot cloud that preempts every
    // 100 ms; a 50 MB checkpoint makes every re-decision stay put.
    FederationWorld w({}, /*spot=*/true);
    w.edge_a.submit(Cycles::giga(400), [](const edgesim::EdgeResult&) {});
    for (int i = 0; i < 2; ++i)
      w.edge_b.submit(Cycles::giga(400), [](const edgesim::EdgeResult&) {});
    w.offer(Duration::zero(), Duration::zero(), DataSize::megabytes(50));
    ledger.check_each_event(w.sim, w.fed, federation_rows);
    EXPECT_EQ(w.fed.stats().spillovers, 1u);
    EXPECT_GE(w.fed.stats().stay_puts, 1u);
  }
  ledger.expect_names_told_apart();
}

// ------------------------------------------------------------------- broker

Rows broker_rows(const broker::Broker& b) {
  const broker::BrokerStats& s = b.stats();
  const broker::TwoStageStats& two = b.twostage();
  const broker::PlanCacheStats& cache = b.cache().stats();
  const broker::AdmissionStats& adm = b.admission().stats();
  const broker::BatchStats& batch = b.dispatcher().stats();
  Rows rows{{"broker.requests", s.requests},
            {"broker.completed", s.completed},
            {"broker.failed", s.failed},
            {"broker.twostage.fast_serves", two.fast_serves},
            {"broker.twostage.resolves", two.resolves},
            {"broker.twostage.agreements", two.agreements},
            {"broker.cache.hits", cache.hits},
            {"broker.cache.hysteresis_hits", cache.hysteresis_hits},
            {"broker.cache.misses", cache.misses},
            {"broker.cache.evictions", cache.evictions},
            {"broker.cache.expiries", cache.expiries},
            {"broker.admission.admitted", adm.admitted},
            {"broker.admission.deferrals", adm.deferrals},
            {"broker.admission.shed", adm.shed},
            {"broker.batch.batches", batch.batches},
            {"broker.batch.jobs", batch.jobs_dispatched},
            {"broker.batch.sealed", batch.sealed}};
  if (s.rejected > 0) rows["broker.rejected"] = s.rejected;
  return rows;
}

/// One broker over a flaky Wi-Fi link, so some runs fail.
struct BrokerWorld {
  sim::Simulator sim;
  serverless::Platform platform{sim, {}};
  device::Device ue{device::budget_phone()};
  net::NetworkPath path = flaky_wifi(3);
  core::OffloadController controller{sim, platform, ue, path, {}};
  partition::MinCutPartitioner mincut;
  broker::Broker broker;
  std::vector<app::TaskGraph> graphs = app::workloads::all();

  explicit BrokerWorld(broker::BrokerConfig cfg)
      : broker(sim, platform, controller, mincut, std::move(cfg)) {}

  /// `users` requests over `spread`, drawn from `rng`: mixed workloads,
  /// batteries, link qualities 2^-14..2^14 (more cache keys than the cache
  /// holds) and slacks, a tenth of them tight.
  void offer(std::size_t users, Duration spread, Rng& rng) {
    for (std::size_t u = 0; u < users; ++u) {
      broker::ServeRequest req;
      req.app = &graphs[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(graphs.size()) - 1))];
      req.battery = rng.uniform(0.05, 1.0);
      req.bandwidth_scale = std::exp2(rng.uniform(-14.0, 14.0));
      req.slack = rng.uniform(0.0, 1.0) < 0.1 ? Duration::minutes(2)
                                              : Duration::hours(12);
      sim.schedule_at(TimePoint::origin() + spread * rng.uniform(0.0, 1.0),
                      [this, req] { broker.serve(req); });
    }
  }
};

TEST(LedgerPublish, BrokerCountersAreItsLayersStats) {
  LedgerCheck ledger;
  Rng rng(17);
  {
    // One stage, batched: a burst deferred by a slow token bucket, sheds,
    // sealed batches, cached plans that expire after four minutes and
    // overflow the cache, failed runs and two malformed requests.
    broker::BrokerConfig cfg;
    cfg.cache.ttl = Duration::minutes(4);
    cfg.admission.rate_per_second = 4.0;
    cfg.admission.burst = 4.0;
    BrokerWorld w(cfg);
    w.offer(1000, Duration::minutes(5), rng);
    for (const Duration at : {Duration::seconds(10), Duration::seconds(70)})
      w.sim.schedule_at(TimePoint::origin() + at, [&w] {
        broker::ServeRequest bad;
        w.broker.serve(bad);  // no app
      });
    ledger.check_each_event(w.sim, w.broker, broker_rows);
    const broker::PlanCacheStats& cache = w.broker.cache().stats();
    EXPECT_GT(cache.evictions, 0u);
    EXPECT_GT(cache.expiries, 0u);
    EXPECT_GT(w.broker.admission().stats().shed, 0u);
    EXPECT_GT(w.broker.dispatcher().stats().sealed, 0u);
    EXPECT_GT(w.broker.stats().failed, 0u);
    EXPECT_EQ(w.broker.stats().rejected, 2u);
  }
  {
    // Two stages, unbatched: misses served by the heuristic while the
    // exact solve resolves in the background.
    broker::BrokerConfig cfg;
    cfg.two_stage_enabled = true;
    cfg.batching_enabled = false;
    cfg.defer.policy = sched::Policy::Immediate;
    BrokerWorld w(cfg);
    w.offer(80, Duration::minutes(2), rng);
    ledger.check_each_event(w.sim, w.broker, broker_rows);
    const broker::TwoStageStats& two = w.broker.twostage();
    EXPECT_GT(two.resolves, two.agreements);
    EXPECT_GT(two.agreements, 0u);
  }
  ledger.expect_names_told_apart();
}

}  // namespace
}  // namespace ntco
