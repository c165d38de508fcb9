// F12 — The offload broker at population scale: plan caching, admission
// control, and batch dispatch versus per-request planning.
//
// A city of phones wakes up in the evening: N users release one
// non-time-critical job each within a two-minute burst at simulated 20:00,
// most with hours of slack, a tight tail (10%) with only minutes. Two
// serving modes face the identical population:
//
//   broker   plan cache + CheapestWindow deferral + batch dispatch. Hits
//            serve a cached DeploymentPlan in microseconds; execution
//            shifts into the 22:00-06:00 off-peak window (x0.55) and
//            flushes as lane-chained batches that reuse warm instances.
//   nocache  the pre-broker baseline: every admitted request replans from
//            scratch and dispatches immediately at full evening price.
//
// Expected shape: cache hit rate rises with population (the decision-
// context keyspace saturates: ~4 workloads x ~5 bandwidth buckets x 4
// battery buckets inside one price window, well under the per-shard cache
// capacity of 256) and plateaus around 90%+; $/job drops by roughly the
// off-peak multiplier; mean and p99 decision latency collapse because hits
// cost 5 us against multi-ms replans. Admission defers the burst down to
// its sustained rate in both modes; the tight tail sheds once the backlog
// outgrows its slack.
//
// Scale: points past kShardUsers split into independent shards of
// kShardUsers users, each with its own broker, platform, and cache (a
// broker serves one region; caches do not gossip). Shards run on the fleet
// engine and merge in shard order, so the table and every NTCO_BENCH_OUT
// artifact are byte-identical at any NTCO_THREADS — wall-clock throughput
// goes to stderr only, keeping stdout deterministic for the CI byte-diff
// gate. Tracing attaches only up to kTraceUsersCap users.
//
// NTCO_F12_SCALE=1 appends a 1,048,576-user point (1024 shards), broker
// mode only: the nocache baseline replans every request at multi-ms each,
// which is hours of wall clock at this population, and its contrast is
// already established by the default points. The default point list is
// unchanged, so the ci.sh byte-diff artifacts never see the knob. The
// stderr line carries the worker pool's view of each parallel run — merge
// steps ("epochs") per second and the per-core shard split.

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ntco/broker/broker.hpp"
#include "ntco/dataplane/engine.hpp"
#include "ntco/fleet/replicator.hpp"
#include "ntco/stats/percentile.hpp"

using namespace ntco;

namespace {

constexpr int kShardUsers = 1024;     // users one broker serves
constexpr int kTraceUsersCap = 1024;  // largest point with tracing attached

const auto kBurst = Duration::minutes(2);  // evening release window
const auto kEvening = Duration::hours(20);

/// One user's draw from the population distribution. Drawn up front, in a
/// fixed order, so the population is a pure function of the shard stream.
struct User {
  std::size_t workload = 0;
  Duration offset;   // release time within the burst
  Duration slack;    // delay tolerance
  double battery = 1.0;
  double bw_scale = 1.0;
};

/// Everything one shard (one broker + platform + cache) reports back for
/// the shard-ordered merge.
struct ShardResult {
  stats::PercentileSample decision_us;   // non-shed requests
  stats::PercentileSample completion_s;  // finish - release, non-shed
  double cloud_usd = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t shed = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t cache_hits = 0;    // exact + hysteresis
  std::uint64_t cache_misses = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t batches = 0;
  obs::MetricsRegistry metrics;
  obs::JsonlTraceWriter trace;
};

std::vector<User> draw_population(int users, std::size_t workloads,
                                  fleet::ShardContext& ctx) {
  std::vector<User> pop;
  pop.reserve(static_cast<std::size_t>(users));
  for (int u = 0; u < users; ++u) {
    User usr;
    usr.workload = static_cast<std::size_t>(
        ctx.rng.uniform_int(0, static_cast<std::int64_t>(workloads) - 1));
    usr.offset = kBurst * ctx.rng.uniform(0.0, 1.0);
    // 10% tight tail: minutes of slack, squeezed out by the backlog. The
    // rest tolerate 6-12 h, deep enough to reach the 22:00 off-peak window.
    usr.slack = ctx.rng.uniform(0.0, 1.0) < 0.1
                    ? Duration::minutes(2) +
                          Duration::minutes(6) * ctx.rng.uniform(0.0, 1.0)
                    : Duration::hours(6) +
                          Duration::hours(6) * ctx.rng.uniform(0.0, 1.0);
    usr.battery = ctx.rng.uniform(0.05, 1.0);
    usr.bw_scale = std::exp2(ctx.rng.uniform(-2.0, 2.0));
    pop.push_back(usr);
  }
  return pop;
}

ShardResult simulate_shard(int users, bool broker_on, bool metrics_on,
                           bool trace_on, fleet::ShardContext& ctx) {
  ShardResult out;
  const auto graphs = app::workloads::all();
  const auto pop = draw_population(users, graphs.size(), ctx);

  serverless::PlatformConfig pcfg;
  pcfg.price_windows = {{22, 6, 0.55}};  // off-peak discount overnight
  bench::World w(bench::ntc_cfg(), net::profile_wifi(), pcfg);
  partition::MinCutPartitioner mincut;

  broker::BrokerConfig bcfg;
  // The burst (~8.5 req/s at full shards) far outruns the sustained
  // planning rate, so admission visibly defers; tight-tail sheds appear
  // once the backlog-quoted retry overshoots minutes of slack.
  bcfg.admission.rate_per_second = 2.0;
  bcfg.admission.burst = 4.0;
  bcfg.admission.min_defer = Duration::seconds(5);
  bcfg.cache_enabled = broker_on;
  bcfg.batching_enabled = broker_on;
  bcfg.defer.policy =
      broker_on ? sched::Policy::CheapestWindow : sched::Policy::Immediate;
  broker::Broker b(w.sim, w.cloud, w.controller, mincut, bcfg);

  if (metrics_on) {
    w.controller.attach_observer(nullptr, &out.metrics);
    w.cloud.attach_observer(nullptr, &out.metrics);
  }
  b.attach_observer(trace_on ? &out.trace : nullptr,
                    metrics_on ? &out.metrics : nullptr);

  const TimePoint t0 = TimePoint::at(kEvening);
  for (int u = 0; u < users; ++u) {
    const User& usr = pop[static_cast<std::size_t>(u)];
    w.sim.schedule_at(t0 + usr.offset, [&b, &graphs, &out, &usr] {
      broker::ServeRequest req;
      req.app = &graphs[usr.workload];
      req.slack = usr.slack;
      req.battery = usr.battery;
      req.bandwidth_scale = usr.bw_scale;
      b.serve(req, [&out](const broker::ServeOutcome& o) {
        if (o.status == broker::ServeStatus::Shed) return;
        out.decision_us.add(
            static_cast<double>(o.decision_latency.count_micros()));
        out.completion_s.add((o.finished - o.released).to_seconds());
      });
    });
  }
  w.sim.run();
  if (metrics_on) {
    w.controller.publish(out.metrics);
    w.cloud.publish(out.metrics);
    b.publish(out.metrics);
  }

  out.cloud_usd = w.cloud.total_cost().to_usd();
  out.cold_starts = w.cloud.stats().cold_starts;
  out.completed = b.stats().completed;
  out.failed = b.stats().failed;
  out.shed = b.stats().shed;
  out.deferrals = b.admission().stats().deferrals;
  const broker::PlanCacheStats& cs = b.cache().stats();
  out.cache_hits = cs.hits + cs.hysteresis_hits;
  out.cache_misses = cs.misses;
  out.batches = b.dispatcher().stats().batches;
  return out;
}

}  // namespace

int main() {
  bench::ReportWriter report(
      "F12", "Offload broker at population scale",
      "hit rate rises with population then plateaus; broker $/job and "
      "decision latency drop vs the replan-per-request baseline");

  obs::JsonlTraceWriter trace;
  obs::MetricsRegistry metrics;
  const bool observe = report.machine_output();

  stats::Table t({"users", "mode", "hit rate", "$/job", "dec mean (us)",
                  "dec p50 (us)", "dec p99 (us)", "colds", "shed", "defers",
                  "batches"});
  std::vector<int> points{128, 1024, 10240, 102400};
  const char* scale_env = std::getenv("NTCO_F12_SCALE");
  const bool at_scale =
      scale_env != nullptr && scale_env[0] != '\0' && scale_env[0] != '0';
  if (at_scale) points.push_back(1024 * 1024);
  for (const int users : points) {
    const int shards = (users + kShardUsers - 1) / kShardUsers;
    const int shard_users = users < kShardUsers ? users : kShardUsers;
    const bool trace_on = observe && users <= kTraceUsersCap;

    for (const bool broker_on : {true, false}) {
      if (!broker_on && users > 102400) continue;  // replan-per-request: hours
      // Same replicator seed for both modes: identical populations, so
      // every delta in the row pair is the broker's doing.
      const auto wall_start = std::chrono::steady_clock::now();
      fleet::Replicator rep(47);
      auto merged = rep.reduce(
          static_cast<std::size_t>(shards), ShardResult{},
          [&](fleet::ShardContext& ctx) {
            return simulate_shard(shard_users, broker_on, observe,
                                  trace_on && broker_on, ctx);
          },
          [](ShardResult& acc, ShardResult&& shard, std::size_t) {
            acc.decision_us.merge(shard.decision_us);
            acc.completion_s.merge(shard.completion_s);
            acc.cloud_usd += shard.cloud_usd;
            acc.completed += shard.completed;
            acc.failed += shard.failed;
            acc.shed += shard.shed;
            acc.deferrals += shard.deferrals;
            acc.cache_hits += shard.cache_hits;
            acc.cache_misses += shard.cache_misses;
            acc.cold_starts += shard.cold_starts;
            acc.batches += shard.batches;
            acc.metrics.merge_from(shard.metrics);
            acc.trace.append_from(shard.trace);
          });
      const double wall_s =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        wall_start)
              .count();

      const std::uint64_t lookups = merged.cache_hits + merged.cache_misses;
      const double hit_rate =
          lookups == 0 ? 0.0
                       : static_cast<double>(merged.cache_hits) /
                             static_cast<double>(lookups);
      // Planning decisions made (nocache never touches the cache counters).
      const std::uint64_t served = merged.completed + merged.failed;
      t.add_row({std::to_string(users), broker_on ? "broker" : "nocache",
                 stats::cell_pct(hit_rate, 1),
                 stats::cell(served == 0 ? 0.0
                                         : merged.cloud_usd /
                                               static_cast<double>(served),
                             6),
                 stats::cell(merged.decision_us.mean(), 1),
                 stats::cell(merged.decision_us.median(), 1),
                 stats::cell(merged.decision_us.p99(), 1),
                 std::to_string(merged.cold_starts),
                 std::to_string(merged.shed),
                 std::to_string(merged.deferrals),
                 std::to_string(merged.batches)});

      // Wall-clock throughput is machine-dependent by nature: stderr only,
      // so stdout and the NTCO_BENCH_OUT artifacts stay byte-deterministic.
      // The pool stats are all zero on serial runs (NTCO_THREADS=1 or a
      // single shard runs inline).
      const dataplane::EngineRunStats& dp = rep.last_dataplane_run();
      std::string cores;
      for (std::size_t c = 0; c < dp.items_per_worker.size(); ++c) {
        if (c > 0) cores += ",";
        cores += std::to_string(dp.items_per_worker[c]);
      }
      std::fprintf(
          stderr,
          "[F12] users=%d mode=%s wall=%.2fs plans/sec=%.0f "
          "epochs=%llu epochs/sec=%.1f cores=[%s]\n",
          users, broker_on ? "broker" : "nocache", wall_s,
          wall_s > 0.0 ? static_cast<double>(served) / wall_s : 0.0,
          static_cast<unsigned long long>(dp.epochs),
          wall_s > 0.0 ? static_cast<double>(dp.epochs) / wall_s : 0.0,
          cores.c_str());

      metrics.merge_from(merged.metrics);
      if (trace_on && broker_on) trace.append_from(merged.trace);
    }
  }
  t.set_title(
      "F12: one job per user, two-minute evening burst at 20:00 "
      "(off-peak x0.55 22:00-06:00; 1024 users/broker past one shard; "
      "10% tight-slack tail)");
  t.set_caption(
      "both modes face identical populations (same replicator seed); "
      "nocache replans per request and dispatches immediately; shards "
      "merge in shard order (byte-stable at any NTCO_THREADS)");
  report.emit(t);
  report.emit_metrics(metrics);
  report.emit_trace(trace);
  return 0;
}
