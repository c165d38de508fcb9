// F15 — Vehicular churn under hard deadlines: the two-stage decision
// pipeline versus exact-only planning.
//
// Vehicles stream through a roadside cell as an open-loop Poisson process
// (0.5 vehicles/s per cell), stay for a short exponential link residence
// (mean 45 s), and offer non-time-critical jobs while resident (0.2 req/s
// each). Every request carries a *hard* deadline — the remaining link
// residence: a result that lands after the vehicle leaves the cell is
// worthless. Link quality churns per request (multiplicative exp2 random
// walk across handoffs), so the decision-context keyspace is wider than
// F12's evening burst and the plan cache keeps taking misses throughout
// the window instead of saturating early. Two serving modes face
// identical streams:
//
//   twostage  cache hit, else a cheap all-remote heuristic answers the
//             miss immediately (40 us) while the exact min-cut solve
//             resolves asynchronously (deduped per cache bucket) and
//             publishes through the cache for the next request in the
//             bucket.
//   exact     every miss waits for the full multi-ms min-cut plan before
//             dispatch (the pre-two-stage broker).
//
// Expected shape: identical arrival streams (same replicator seed), so
// admission sheds the same transfer-infeasible share in both modes — the
// upfront now+est>deadline check fires hard here (roughly half the offers:
// a link-churned vehicle with seconds of residence cannot absorb a
// transfer-dominated job, which is the deadline-constrained admission
// story). The surviving requests tell the pipeline story: two-stage
// collapses miss-path decision latency (p99 drops from multi-ms to
// double-digit us) at an unchanged in-time share (execution, not the
// decision, dominates these multi-second jobs), and the heuristic's
// agreement rate against the exact solver shows how often stage 2 merely
// confirms stage 1 (the non-time-critical objective offloads aggressively,
// so agreement sits high and the fast answer is usually the right answer).
//
// Scale: each fleet shard simulates one independent cell for a 15-minute
// window; shards merge in shard order, so the table and NTCO_BENCH_OUT
// artifacts are byte-identical at any NTCO_THREADS (ci.sh step-3 gate).
// Wall-clock goes to stderr only. Tracing attaches only at the smallest
// point.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "ntco/app/arrivals.hpp"
#include "ntco/broker/broker.hpp"
#include "ntco/fleet/replicator.hpp"
#include "ntco/stats/percentile.hpp"

using namespace ntco;

namespace {

constexpr int kTraceCellsCap = 1;        // largest point with tracing
const auto kWindow = Duration::minutes(15);  // per-cell observation window
const auto kStart = Duration::hours(17);     // rush hour

/// Everything one shard (one cell: broker + platform + cache) reports
/// back for the shard-ordered merge.
struct ShardResult {
  stats::PercentileSample decision_us;   // non-shed requests
  std::uint64_t vehicles = 0;
  std::uint64_t requests = 0;
  std::uint64_t completed = 0;
  std::uint64_t in_time = 0;       // finished before the vehicle exited
  std::uint64_t failed = 0;
  std::uint64_t shed_deadline = 0;
  std::uint64_t shed_queue = 0;
  std::uint64_t deferrals = 0;
  std::uint64_t cache_hits = 0;    // exact + hysteresis
  std::uint64_t cache_misses = 0;
  std::uint64_t fast_serves = 0;
  std::uint64_t resolves = 0;
  std::uint64_t agreements = 0;
  obs::MetricsRegistry metrics;
  obs::JsonlTraceWriter trace;
};

ShardResult simulate_cell(bool two_stage, bool metrics_on, bool trace_on,
                          fleet::ShardContext& ctx) {
  ShardResult out;
  const auto graphs = app::workloads::all();

  // The arrival stream draws first, in a fixed order, so the offered load
  // is a pure function of (seed, shard) — identical across serving modes.
  app::VehicularConfig vcfg;  // defaults: 0.5 veh/s, 45 s residence
  app::ArrivalObserver watch;
  if (trace_on) watch.trace = &out.trace;
  if (metrics_on) watch.metrics = &out.metrics;
  const TimePoint t0 = TimePoint::at(kStart);
  const auto sessions =
      app::vehicular_sessions(vcfg, t0, kWindow, ctx.rng, watch);
  // Each vehicle runs one app for its whole pass through the cell.
  std::vector<std::size_t> vehicle_workload;
  vehicle_workload.reserve(sessions.size());
  for (std::size_t v = 0; v < sessions.size(); ++v)
    vehicle_workload.push_back(static_cast<std::size_t>(ctx.rng.uniform_int(
        0, static_cast<std::int64_t>(graphs.size()) - 1)));

  bench::World w(bench::ntc_cfg(), net::profile_5g(), {});
  partition::MinCutPartitioner mincut;

  broker::BrokerConfig bcfg;
  // Hard sub-minute deadlines: deferral is nearly useless here (the
  // vehicle leaves before a long retry), so admission keeps a modest
  // sustained rate and the deadline checks do the shedding.
  bcfg.admission.rate_per_second = 8.0;
  bcfg.admission.burst = 16.0;
  bcfg.admission.min_defer = Duration::seconds(1);
  bcfg.batching_enabled = false;  // latency matters; no grid alignment
  bcfg.defer.policy = sched::Policy::Immediate;
  bcfg.two_stage_enabled = two_stage;
  broker::Broker b(w.sim, w.cloud, w.controller, mincut, bcfg);
  b.attach_observer(trace_on ? &out.trace : nullptr,
                    metrics_on ? &out.metrics : nullptr);

  out.vehicles = sessions.size();
  for (const app::VehicleSession& s : sessions) {
    const app::TaskGraph& g = graphs[vehicle_workload[s.vehicle]];
    for (const app::VehicleRequest& r : s.requests) {
      ++out.requests;
      const TimePoint exit = s.exit();  // the hard deadline
      w.sim.schedule_at(r.at, [&b, &g, &out, &r, exit] {
        broker::ServeRequest req;
        req.app = &g;
        req.slack = r.residence_left;  // hard deadline: link residence
        req.battery = r.battery;
        req.bandwidth_scale = r.bw_scale;
        b.serve(req, [&out, exit](const broker::ServeOutcome& o) {
          if (o.status == broker::ServeStatus::Shed) {
            if (o.shed_reason == broker::ShedReason::QueueFull)
              ++out.shed_queue;
            else
              ++out.shed_deadline;
            return;
          }
          out.decision_us.add(
              static_cast<double>(o.decision_latency.count_micros()));
          if (o.status == broker::ServeStatus::Completed && o.finished <= exit)
            ++out.in_time;
        });
      });
    }
  }
  w.sim.run();
  if (metrics_on) b.publish(out.metrics);

  out.completed = b.stats().completed;
  out.failed = b.stats().failed;
  out.deferrals = b.admission().stats().deferrals;
  const broker::PlanCacheStats& cs = b.cache().stats();
  out.cache_hits = cs.hits + cs.hysteresis_hits;
  out.cache_misses = cs.misses;
  out.fast_serves = b.twostage().fast_serves;
  out.resolves = b.twostage().resolves;
  out.agreements = b.twostage().agreements;
  return out;
}

}  // namespace

int main() {
  bench::ReportWriter report(
      "F15", "Vehicular churn: two-stage decisions under hard deadlines",
      "two-stage collapses miss-path decision p99 from multi-ms to tens "
      "of us; sheds identical across modes (same streams, same admission)");

  obs::JsonlTraceWriter trace;
  obs::MetricsRegistry metrics;
  const bool observe = report.machine_output();

  stats::Table t({"cells", "mode", "veh", "reqs", "hit rate", "fast", "agree",
                  "shed dl", "shed q", "defers", "dec p50 (us)",
                  "dec p99 (us)", "in-time"});
  for (const int cells : {1, 8, 64}) {
    const bool trace_on = observe && cells <= kTraceCellsCap;
    for (const bool two_stage : {true, false}) {
      const auto wall_start = std::chrono::steady_clock::now();
      // Same replicator seed for both modes: identical vehicle streams,
      // so every delta in the row pair is the pipeline's doing.
      fleet::Replicator rep(53);
      auto merged = rep.reduce(
          static_cast<std::size_t>(cells), ShardResult{},
          [&](fleet::ShardContext& ctx) {
            return simulate_cell(two_stage, observe, trace_on && two_stage,
                                 ctx);
          },
          [](ShardResult& acc, ShardResult&& shard, std::size_t) {
            acc.decision_us.merge(shard.decision_us);
            acc.vehicles += shard.vehicles;
            acc.requests += shard.requests;
            acc.completed += shard.completed;
            acc.in_time += shard.in_time;
            acc.failed += shard.failed;
            acc.shed_deadline += shard.shed_deadline;
            acc.shed_queue += shard.shed_queue;
            acc.deferrals += shard.deferrals;
            acc.cache_hits += shard.cache_hits;
            acc.cache_misses += shard.cache_misses;
            acc.fast_serves += shard.fast_serves;
            acc.resolves += shard.resolves;
            acc.agreements += shard.agreements;
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
      const double fast_share =
          merged.requests == 0
              ? 0.0
              : static_cast<double>(merged.fast_serves) /
                    static_cast<double>(merged.requests);
      const double agree_rate =
          merged.resolves == 0 ? 0.0
                               : static_cast<double>(merged.agreements) /
                                     static_cast<double>(merged.resolves);
      const double in_time =
          merged.completed == 0 ? 0.0
                                : static_cast<double>(merged.in_time) /
                                      static_cast<double>(merged.completed);
      t.add_row({std::to_string(cells), two_stage ? "twostage" : "exact",
                 std::to_string(merged.vehicles),
                 std::to_string(merged.requests), stats::cell_pct(hit_rate, 1),
                 stats::cell_pct(fast_share, 1),
                 stats::cell_pct(agree_rate, 1),
                 std::to_string(merged.shed_deadline),
                 std::to_string(merged.shed_queue),
                 std::to_string(merged.deferrals),
                 stats::cell(merged.decision_us.median(), 1),
                 stats::cell(merged.decision_us.p99(), 1),
                 stats::cell_pct(in_time, 1)});

      std::fprintf(stderr, "[F15] cells=%d mode=%s wall=%.2fs reqs/sec=%.0f\n",
                   cells, two_stage ? "twostage" : "exact", wall_s,
                   wall_s > 0.0
                       ? static_cast<double>(merged.requests) / wall_s
                       : 0.0);

      metrics.merge_from(merged.metrics);
      if (trace_on && two_stage) trace.append_from(merged.trace);
    }
  }
  t.set_title(
      "F15: roadside cells at rush hour, 15-minute window (0.5 veh/s/cell, "
      "45 s mean residence, 0.2 req/s/vehicle, hard deadline = remaining "
      "residence, per-request link churn)");
  t.set_caption(
      "both modes face identical vehicle streams (same replicator seed); "
      "exact waits for the min-cut plan on every miss, twostage answers "
      "misses with the all-remote heuristic and resolves exactly in the "
      "background; cells merge in shard order (byte-stable at any "
      "NTCO_THREADS)");
  report.emit(t);
  report.emit_metrics(metrics);
  report.emit_trace(trace);
  return 0;
}
