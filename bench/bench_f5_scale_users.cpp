// F5 — Edge site versus serverless cloud as user count grows, at
// population scale on the fleet engine.
//
// N users each submit one 10 Gcycle job within a one-minute window. The
// edge site (4 servers, LAN latency, standing infrastructure cost) wins on
// response time at low load; past ~4 concurrent jobs its queue grows
// linearly while the serverless cloud keeps scaling out (cold starts are
// its only penalty). Per-job cost: the edge is ruinous at low utilisation
// (idle servers still bill) and only approaches the serverless price when
// saturated — exactly the "required infrastructure" drawback the abstract
// cites, and why non-time-critical work should skip the edge.
//
// Scale: points past kShardUsers users split the population into
// independent shards of kShardUsers users, each owning its own edge site
// (4 servers) and serverless region — the geographic reality of edge
// deployments (every site serves only its local users) and the reason the
// serverless side "just scales". Shards run in parallel on the fleet
// (NTCO_THREADS workers) and their results merge in shard order, so the
// table and every NTCO_BENCH_OUT artifact are byte-identical at any
// worker count. Tracing attaches only up to kTraceUsersCap users to keep
// the trace artifact bounded; the metrics registry covers every point.

#include <vector>

#include "bench_common.hpp"
#include "ntco/fleet/replicator.hpp"

using namespace ntco;

namespace {

constexpr int kShardUsers = 128;      // users one edge site serves
constexpr int kTraceUsersCap = 1024;  // largest point with tracing attached

const auto kWork = Cycles::giga(10);
const auto kWindow = Duration::minutes(1);
const auto kDay = Duration::hours(24);  // edge amortisation period

/// Everything one shard (one edge site + one serverless region, serving
/// `users` local users) reports back for the shard-ordered merge.
struct ShardResult {
  stats::PercentileSample edge_latency;
  stats::PercentileSample cloud_latency;
  double edge_util = 0.0;       // window load extrapolated to a full day
  double edge_infra_usd = 0.0;  // 24 h of this site's infrastructure
  double cloud_usd = 0.0;
  std::uint64_t cold_starts = 0;
  obs::MetricsRegistry metrics;
  obs::JsonlTraceWriter trace;
};

ShardResult simulate_shard(int users, bool metrics_on, bool trace_on,
                           fleet::ShardContext& ctx) {
  ShardResult out;

  // One arrival offset per user, shared by the edge and cloud runs so the
  // two platforms face the identical burst.
  std::vector<Duration> arrival;
  arrival.reserve(static_cast<std::size_t>(users));
  for (int u = 0; u < users; ++u)
    arrival.push_back(kWindow * ctx.rng.uniform(0.0, 1.0));

  // --- Edge site: 4 servers, jobs burst within the window. ---------------
  {
    sim::Simulator esim;
    edgesim::EdgeConfig ecfg;
    ecfg.servers = 4;
    edgesim::EdgePlatform edge(esim, ecfg);
    net::NetworkPath elan = net::make_fixed_path(net::profile_edge_lan());
    for (int u = 0; u < users; ++u) {
      esim.schedule_at(TimePoint::origin() + arrival[static_cast<std::size_t>(u)], [&] {
        // Request and response ride the LAN around the queue+exec.
        const Duration up = elan.uplink().transfer_time(DataSize::megabytes(2));
        esim.schedule_after(up, [&, up] {
          edge.submit(kWork, [&, up](const edgesim::EdgeResult& r) {
            const Duration down =
                elan.downlink().transfer_time(DataSize::kilobytes(200));
            out.edge_latency.add(
                (r.finished - r.submitted + down + up).to_seconds());
          });
        });
      });
    }
    esim.run();
    // Amortise a day of infrastructure over this window's share of a
    // day's identical windows: the site exists all day either way.
    esim.run_until(TimePoint::origin() + kDay);
    out.edge_util = edge.utilization() * (kDay / kWindow);
    out.edge_infra_usd = edge.infrastructure_cost().to_usd();
  }

  // --- Serverless: same burst, same work. --------------------------------
  {
    sim::Simulator csim;
    serverless::Platform cloud(csim, {});
    net::NetworkPath wan = net::make_fixed_path(net::profile_wifi());
    if (trace_on) {
      csim.set_trace_sink(&out.trace);
      wan.set_trace(&out.trace, &csim);
    }
    if (metrics_on)
      cloud.attach_observer(trace_on ? &out.trace : nullptr, &out.metrics);
    const auto fn = cloud.deploy(serverless::FunctionSpec{
        "job", DataSize::megabytes(1792), DataSize::megabytes(40)});
    for (int u = 0; u < users; ++u) {
      csim.schedule_at(TimePoint::origin() + arrival[static_cast<std::size_t>(u)], [&] {
        const Duration up = wan.uplink().transfer_time(DataSize::megabytes(2));
        csim.schedule_after(up, [&, up] {
          cloud.invoke(fn, kWork, [&, up](const serverless::InvocationResult& r) {
            const Duration down =
                wan.downlink().transfer_time(DataSize::kilobytes(200));
            out.cloud_latency.add(
                (r.finished - r.submitted + down + up).to_seconds());
          });
        });
      });
    }
    csim.run();
    if (metrics_on) cloud.publish(out.metrics);
    out.cold_starts = cloud.stats().cold_starts;
    out.cloud_usd = cloud.total_cost().to_usd();
  }
  return out;
}

}  // namespace

int main() {
  bench::ReportWriter report("F5", "Edge vs serverless under load",
                      "edge p95 explodes past its capacity; serverless p95 "
                      "flat; edge $/job falls with load, serverless flat");

  // Machine-readable observability for the whole sweep: per-shard streams
  // and registries merge in shard order, so two runs with the same seeds
  // must produce byte-identical files at any NTCO_THREADS.
  obs::JsonlTraceWriter trace;
  obs::MetricsRegistry metrics;
  const bool observe = report.machine_output();

  stats::Table t({"users", "sites", "edge p95 (s)", "cloud p95 (s)",
                  "edge util", "edge $/job", "cloud $/job", "cloud colds"});
  for (const int users :
       {1, 2, 4, 8, 16, 32, 64, 128, 1024, 10240, 102400}) {
    const int shards = (users + kShardUsers - 1) / kShardUsers;
    const int shard_users = users < kShardUsers ? users : kShardUsers;
    const bool trace_on = observe && users <= kTraceUsersCap;

    fleet::Replicator rep(31);
    auto merged = rep.reduce(
        static_cast<std::size_t>(shards), ShardResult{},
        [&](fleet::ShardContext& ctx) {
          return simulate_shard(shard_users, observe, trace_on, ctx);
        },
        [](ShardResult& acc, ShardResult&& shard, std::size_t) {
          acc.edge_latency.merge(shard.edge_latency);
          acc.cloud_latency.merge(shard.cloud_latency);
          acc.edge_util += shard.edge_util;
          acc.edge_infra_usd += shard.edge_infra_usd;
          acc.cloud_usd += shard.cloud_usd;
          acc.cold_starts += shard.cold_starts;
          acc.metrics.merge_from(shard.metrics);
          acc.trace.append_from(shard.trace);
        });

    const double edge_jobs_per_day =
        static_cast<double>(users) * (kDay / kWindow);
    t.add_row({std::to_string(users), std::to_string(shards),
               stats::cell(merged.edge_latency.p95(), 2),
               stats::cell(merged.cloud_latency.p95(), 2),
               stats::cell_pct(merged.edge_util / shards, 1),
               stats::cell(merged.edge_infra_usd / edge_jobs_per_day, 6),
               stats::cell(merged.cloud_usd / users, 6),
               std::to_string(merged.cold_starts)});
    metrics.merge_from(merged.metrics);
    if (trace_on) trace.append_from(merged.trace);
  }
  t.set_title("F5: one 10 Gcyc job per user in a 1-minute window "
              "(per site: edge 4 x 3 GHz servers; cloud 1792 MB functions; "
              "128 users/site past one site)");
  t.set_caption("edge util extrapolates the window's load to a full day; "
                "edge $/job amortises 24 h of per-site infrastructure; "
                "shards merge in shard order (byte-stable at any "
                "NTCO_THREADS)");
  report.emit(t);
  report.emit_metrics(metrics);
  report.emit_trace(trace);
  return 0;
}
