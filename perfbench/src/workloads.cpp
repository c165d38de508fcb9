#include "workloads.hpp"

#include <chrono>
#include <cmath>
#include <exception>
#include <string>
#include <utility>

#include "ntco/app/arrivals.hpp"
#include "ntco/app/generators.hpp"
#include "ntco/app/workloads.hpp"
#include "ntco/broker/broker.hpp"
#include "ntco/common/rng.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/device/device.hpp"
#include "ntco/net/path.hpp"
#include "ntco/partition/partitioners.hpp"
#include "ntco/serverless/platform.hpp"
#include "ntco/sim/simulator.hpp"

namespace perfbench {

using namespace ntco;

namespace {

// Sizes are per timed round; see README.md for how they were chosen.
constexpr std::size_t kBurstUsers = 144;  // replan_burst users per shard
// diurnal_day neighbourhoods are denser than F16's (~1.1k users/day), so
// the cache keyspace saturates early and the day runs warm.
constexpr double kDiurnalDensity = 3.0;
const auto kDay = Duration::hours(24);
const auto kBurst = Duration::minutes(2);
const auto kEvening = Duration::hours(20);
const auto kRushHour = Duration::hours(17);
const auto kCellWindow = Duration::minutes(15);

const std::vector<Workload> kWorkloads = {
    {WorkloadKind::DiurnalDay, "diurnal_day", 48, true},
    {WorkloadKind::ReplanBurst, "replan_burst", 64, false},
    {WorkloadKind::VehicularChurn, "vehicular_churn", 32, false},
};

/// The F12/F16 population's delay tolerance: a 10% tight tail of minutes,
/// the rest deep enough to reach the overnight off-peak window.
Duration population_slack(Rng& rng) {
  return rng.uniform(0.0, 1.0) < 0.1
             ? Duration::minutes(2) +
                   Duration::minutes(6) * rng.uniform(0.0, 1.0)
             : Duration::hours(6) + Duration::hours(6) * rng.uniform(0.0, 1.0);
}

/// Draws graph, slack, battery and link quality for one F12/F16 user.
Request population_user(TimePoint at, std::size_t graphs, Rng& rng) {
  Request r;
  r.at = at;
  r.graph = static_cast<std::uint32_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(graphs) - 1));
  r.slack = population_slack(rng);
  r.battery = rng.uniform(0.05, 1.0);
  r.bw_scale = std::exp2(rng.uniform(-2.0, 2.0));
  return r;
}

template <class Fn>
auto timed(double& acc_s, Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  auto out = fn();
  acc_s += std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
               .count();
  return out;
}

/// F16: one neighbourhood's 24 h MMPP residential day.
ShardInput diurnal_inputs(Rng& rng, double& arrivals_s) {
  ShardInput in;
  in.graphs = app::workloads::all();
  app::MmppConfig acfg;
  acfg.mean_rate_per_second = kDiurnalDensity * 1100.0 / (24.0 * 3600.0);
  acfg.profile = app::DiurnalProfile::residential_evening();
  acfg.burst_multiplier = 3.0;
  const auto arrivals = timed(arrivals_s, [&] {
    return app::mmpp_arrivals(acfg, TimePoint::origin(), kDay, rng);
  });
  in.requests.reserve(arrivals.size());
  for (const TimePoint at : arrivals)
    in.requests.push_back(population_user(at, in.graphs.size(), rng));
  return in;
}

/// F12: a two-minute evening burst over the four concrete workloads plus
/// four generated layered DAGs of 16-64 components (distinct sizes, so
/// graph names stay unique within the shard).
ShardInput burst_inputs(Rng& rng, double& arrivals_s) {
  ShardInput in;
  in.graphs = app::workloads::all();
  constexpr std::size_t kLayers[] = {4, 5, 6, 8};
  for (std::size_t k = 0; k < 4; ++k) {
    app::GeneratorParams p;
    p.components = 16 * (k + 1);
    in.graphs.push_back(app::layered_random(kLayers[k], p, rng.fork(k)));
  }
  const TimePoint t0 = TimePoint::at(kEvening);
  in.requests = timed(arrivals_s, [&] {
    std::vector<Request> reqs;
    reqs.reserve(kBurstUsers);
    for (std::size_t u = 0; u < kBurstUsers; ++u) {
      const Duration offset = kBurst * rng.uniform(0.0, 1.0);
      reqs.push_back(population_user(t0 + offset, in.graphs.size(), rng));
    }
    return reqs;
  });
  return in;
}

/// F15: one roadside cell at rush hour; every request's slack is the
/// vehicle's remaining link residence (a hard deadline).
ShardInput vehicular_inputs(Rng& rng, double& arrivals_s) {
  ShardInput in;
  in.graphs = app::workloads::all();
  const app::VehicularConfig vcfg;  // 0.5 veh/s, 45 s mean residence
  const auto sessions = timed(arrivals_s, [&] {
    return app::vehicular_sessions(vcfg, TimePoint::at(kRushHour), kCellWindow,
                                   rng);
  });
  std::size_t total = 0;
  for (const app::VehicleSession& s : sessions) total += s.requests.size();
  in.requests.reserve(total);
  for (const app::VehicleSession& s : sessions) {
    // Each vehicle runs one app for its whole pass through the cell.
    const auto graph = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(in.graphs.size()) - 1));
    for (const app::VehicleRequest& vr : s.requests)
      in.requests.push_back(
          Request{vr.at, vr.residence_left, vr.battery, vr.bw_scale, graph});
  }
  return in;
}

struct ServeSetup {
  net::TechProfile tech;
  serverless::PlatformConfig platform;
  broker::BrokerConfig broker;
};

ServeSetup setup_for(WorkloadKind kind) {
  ServeSetup s;
  switch (kind) {
    case WorkloadKind::DiurnalDay:  // F16's broker
      s.tech = net::profile_wifi();
      s.platform.price_windows = {{22, 6, 0.55}};
      s.broker.cache.ttl = Duration::hours(6);
      // F16's planning rate and burst, scaled with the density.
      s.broker.admission.rate_per_second = kDiurnalDensity * 0.05;
      s.broker.admission.burst = kDiurnalDensity * 8.0;
      s.broker.admission.min_defer = Duration::seconds(30);
      s.broker.defer.policy = sched::Policy::CheapestWindow;
      break;
    case WorkloadKind::ReplanBurst:  // F12 nocache, admission wide open
      s.tech = net::profile_wifi();
      s.platform.price_windows = {{22, 6, 0.55}};
      s.broker.admission.rate_per_second = 1e9;
      s.broker.admission.burst = 1e9;
      s.broker.cache_enabled = false;
      s.broker.batching_enabled = false;
      s.broker.defer.policy = sched::Policy::Immediate;
      break;
    case WorkloadKind::VehicularChurn:  // F15 two-stage
      s.tech = net::profile_5g();
      s.broker.admission.rate_per_second = 8.0;
      s.broker.admission.burst = 16.0;
      s.broker.admission.min_defer = Duration::seconds(1);
      s.broker.batching_enabled = false;
      s.broker.defer.policy = sched::Policy::Immediate;
      s.broker.two_stage_enabled = true;
      break;
  }
  return s;
}

/// One shard's serving state, addressed by the simulator events and the
/// outcome callbacks through a single pointer (keeps both captures small).
struct ShardRun {
  const ShardInput& in;
  SpanRecorder* rec;
  broker::Broker& broker;
  ShardResult& out;
  std::uint64_t outcomes = 0;

  void serve(std::uint32_t u) {
    const Request& r = in.requests[u];
    broker::ServeRequest req;
    req.app = &in.graphs[r.graph];
    req.slack = r.slack;
    req.battery = r.battery;
    req.bandwidth_scale = r.bw_scale;
    const ScopedSpan span(rec, SpanKind::Serve, u);
    broker.serve(req, [this, u](const broker::ServeOutcome& o) {
      record(u, o);
    });
  }

  void record(std::uint32_t u, const broker::ServeOutcome& o) {
    ++outcomes;
    std::uint64_t h = fnv(out.digest, u);
    h = fnv(h, static_cast<std::uint64_t>(o.status) |
                   static_cast<std::uint64_t>(o.shed_reason) << 8 |
                   static_cast<std::uint64_t>(o.cache_hit) << 16 |
                   static_cast<std::uint64_t>(o.heuristic_serve) << 24);
    h = fnv(h, o.deferrals);
    h = fnv(h, static_cast<std::uint64_t>(
                   o.released.since_origin().count_micros()));
    h = fnv(h, static_cast<std::uint64_t>(
                   o.finished.since_origin().count_micros()));
    h = fnv(h, static_cast<std::uint64_t>(o.decision_latency.count_micros()));
    h = fnv(h, static_cast<std::uint64_t>(o.report.makespan.count_micros()));
    h = fnv(h,
            static_cast<std::uint64_t>(o.report.cloud_cost.count_nano_usd()));
    out.digest = h;
    if (o.status == broker::ServeStatus::Shed) {
      if (o.shed_reason == broker::ShedReason::QueueFull)
        ++out.shed_queue;
      else
        ++out.shed_deadline;
      return;
    }
    out.completion_s.add((o.finished - o.released).to_seconds());
    if (rec != nullptr && o.deferrals == 0)
      out.serve_class[u] = o.cache_hit ? 0 : 1;
  }
};

/// Appends "<what>: <got> != <want>" to `err` when the counts differ.
void expect_eq(std::string& err, const char* what, std::uint64_t got,
               std::uint64_t want) {
  if (got == want) return;
  if (!err.empty()) err += "; ";
  err += what;
  err += ": " + std::to_string(got) + " != " + std::to_string(want);
}

void serve_shard(const Workload& w, const ShardInput& in, SpanRecorder* rec,
                 ShardResult& out) {
  const ServeSetup setup = setup_for(w.kind);
  sim::Simulator sim;
  serverless::Platform cloud(sim, setup.platform);
  device::Device ue(device::budget_phone());
  net::NetworkPath path = net::make_fixed_path(setup.tech);
  ProbedTransport transport(path, rec);
  core::OffloadController controller(sim, cloud, ue, transport,
                                     core::ControllerConfig{});
  const partition::MinCutPartitioner mincut;
  // The broker's built-in stage-1 rule, made explicit so it can be probed.
  const partition::RemoteAllPartitioner all_remote;
  const ProbedPartitioner exact(mincut, SpanKind::Plan, rec);
  const ProbedPartitioner heuristic(all_remote, SpanKind::HeuristicPlan, rec);
  broker::BrokerConfig bcfg = setup.broker;
  if (bcfg.two_stage_enabled) bcfg.heuristic_partitioner = &heuristic;
  broker::Broker b(sim, cloud, controller, exact, bcfg);

  out.offered = in.requests.size();
  out.digest = kFnvBasis;
  if (rec != nullptr) out.serve_class.assign(in.requests.size(), 2);
  ShardRun run{in, rec, b, out};
  for (std::size_t u = 0; u < in.requests.size(); ++u)
    sim.schedule_at(in.requests[u].at,
                    [r = &run, u = static_cast<std::uint32_t>(u)] {
                      r->serve(u);
                    });
  {
    const ScopedSpan span(rec, SpanKind::SimRun);
    out.sim_events = sim.run();
  }

  const broker::BrokerStats& bs = b.stats();
  const broker::AdmissionStats& as = b.admission().stats();
  const broker::PlanCacheStats& cs = b.cache().stats();
  const serverless::PlatformStats ps = cloud.stats();
  out.completed = bs.completed;
  out.failed = bs.failed;
  out.admitted = as.admitted;
  out.deferrals = as.deferrals;
  out.cache_hits = cs.hits + cs.hysteresis_hits;
  out.cache_misses = cs.misses;
  out.cache_evictions = cs.evictions;
  out.cache_expiries = cs.expiries;
  out.batches = b.dispatcher().stats().batches;
  out.fast_serves = b.twostage().fast_serves;
  out.resolves = b.twostage().resolves;
  out.plan_calls = exact.calls();
  out.heuristic_calls = heuristic.calls();
  out.transport_calls = transport.calls();
  out.invocations = ps.invocations;
  out.cold_starts = ps.cold_starts;
  out.cloud_usd = cloud.total_cost().to_usd();
  for (const std::uint64_t x :
       {bs.requests, bs.completed, bs.failed, bs.shed, as.admitted,
        as.deferrals, cs.hits, cs.hysteresis_hits, cs.misses, cs.evictions,
        cs.expiries, out.batches, out.fast_serves, out.resolves,
        out.plan_calls, out.heuristic_calls, out.transport_calls,
        ps.invocations, ps.cold_starts, out.sim_events,
        static_cast<std::uint64_t>(cloud.total_cost().count_nano_usd())})
    out.digest = fnv(out.digest, x);

  // Ledger: every offer is accounted for once the simulator has drained.
  std::string err;
  expect_eq(err, "requests vs offered", bs.requests, out.offered);
  expect_eq(err, "requests vs completed+failed+shed", bs.requests,
            bs.completed + bs.failed + bs.shed);
  expect_eq(err, "outcome callbacks vs requests", run.outcomes, bs.requests);
  expect_eq(err, "shed outcomes vs broker shed",
            out.shed_deadline + out.shed_queue, bs.shed);
  expect_eq(err, "deferred_outstanding", as.deferred_outstanding, 0);
  // Every admitted request makes exactly one cache lookup.
  expect_eq(err, "cache lookups vs admitted",
            cs.hits + cs.hysteresis_hits + cs.misses,
            bcfg.cache_enabled ? as.admitted : 0);
  // Exact plans: one per miss not answered by the heuristic (every
  // admitted request when the cache is off), plus each async resolve.
  const std::uint64_t exact_misses =
      bcfg.cache_enabled ? cs.misses - out.fast_serves : as.admitted;
  expect_eq(err, "exact plan calls vs exact misses + resolves",
            out.plan_calls, exact_misses + out.resolves);
  expect_eq(err, "heuristic plan calls vs fast serves", out.heuristic_calls,
            out.fast_serves);
  out.error = std::move(err);
}

}  // namespace

const std::vector<Workload>& all_workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::vector<ShardInput> make_inputs(const Workload& w, std::uint64_t seed,
                                    double& arrivals_s) {
  arrivals_s = 0.0;
  std::vector<ShardInput> inputs;
  inputs.reserve(w.shards);
  for (std::size_t s = 0; s < w.shards; ++s) {
    Rng rng = Rng::stream(seed, s).fork(static_cast<std::uint64_t>(w.kind));
    switch (w.kind) {
      case WorkloadKind::DiurnalDay:
        inputs.push_back(diurnal_inputs(rng, arrivals_s));
        break;
      case WorkloadKind::ReplanBurst:
        inputs.push_back(burst_inputs(rng, arrivals_s));
        break;
      case WorkloadKind::VehicularChurn:
        inputs.push_back(vehicular_inputs(rng, arrivals_s));
        break;
    }
  }
  return inputs;
}

ShardResult run_shard(const Workload& w, const ShardInput& in,
                      SpanRecorder* rec) {
  ShardResult out;
  try {
    const ScopedSpan span(rec, SpanKind::Shard);
    serve_shard(w, in, rec, out);
  } catch (const std::exception& e) {
    out.error = std::string("threw: ") + e.what();
  } catch (...) {
    out.error = "threw a non-std exception";
  }
  if (rec != nullptr) out.spans = std::move(rec->spans());
  return out;
}

}  // namespace perfbench
