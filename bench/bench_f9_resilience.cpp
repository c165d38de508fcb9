// F9 — Resilience under transfer loss: completion, fallback, and the cost
// of retries.
//
// The uplink and downlink drop each transfer with probability p; the
// controller retries (2x) and falls back to local execution when an upload
// is unrecoverable. Expected shape: completion stays ~100% across loss
// rates — failed uploads degrade to local execution rather than failing the
// run — while makespan inflates with burned timeouts; only downlink loss
// can abort a run (stranded results), which shows up at high loss as
// non-complete runs.
//
// All (loss rate, replica) pairs run concurrently on the fleet, one shard
// each; per-point aggregation folds replicas in replica order, so the table
// is identical at any NTCO_THREADS.

#include <vector>

#include "bench_common.hpp"
#include "ntco/fleet/replicator.hpp"
#include "ntco/net/flaky_link.hpp"
#include "ntco/net/path.hpp"

using namespace ntco;

namespace {

net::NetworkPath flaky_wifi(double loss, const Rng& rng) {
  const auto p = net::profile_wifi();
  return net::NetworkPath(
      "flaky-wifi",
      std::make_unique<net::FlakyLink>(
          std::make_unique<net::FixedLink>(p.one_way_latency, p.uplink), loss,
          Duration::seconds(2), rng.fork(0)),
      std::make_unique<net::FlakyLink>(
          std::make_unique<net::FixedLink>(p.one_way_latency, p.downlink),
          loss, Duration::seconds(2), rng.fork(1)));
}

struct RunResult {
  bool completed = false;
  double makespan_s = 0.0;
  double cost_usd = 0.0;
  std::uint32_t fallbacks = 0;
  std::uint32_t retries = 0;
};

}  // namespace

int main() {
  bench::ReportWriter report("F9", "Resilience under transfer loss",
                      "completion ~100% via local fallback until downlink "
                      "loss strands results; makespan inflates with "
                      "timeouts");

  const auto g = app::workloads::photo_backup();
  const std::vector<double> losses{0.0, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0};
  const int kRuns = 30;

  const auto replicas = static_cast<std::size_t>(kRuns);
  fleet::Replicator replicator(1000);
  const auto runs = replicator.map(
      losses.size() * replicas,
      [&g, &losses, replicas,
       seed = replicator.seed()](fleet::ShardContext& sc) {
        // Pair (point p, replica r) draws from Rng::stream(seed, p).stream(r),
        // so a point's streams do not move when the replica count changes.
        const std::size_t point = sc.shard / replicas;
        const std::size_t replica = sc.shard % replicas;
        sim::Simulator sim;
        serverless::Platform cloud(sim, {});
        device::Device ue(device::budget_phone());
        auto path = flaky_wifi(losses[point],
                               Rng::stream(seed, point).stream(replica));
        core::ControllerConfig cfg;
        cfg.objective = partition::Objective::latency();
        cfg.max_transfer_retries = 2;
        core::OffloadController ctl(sim, cloud, ue, path, cfg);
        const auto plan = ctl.prepare(g, partition::MinCutPartitioner{});
        const auto r = ctl.execute(plan, g);
        RunResult out;
        out.completed = !r.failed;
        if (out.completed) {
          out.makespan_s = r.makespan.to_seconds();
          out.cost_usd = r.cloud_cost.to_usd();
        }
        out.fallbacks = static_cast<std::uint32_t>(r.local_fallbacks);
        out.retries = static_cast<std::uint32_t>(r.transfer_failures);
        return out;
      });

  stats::Table t({"loss rate", "completed", "fallbacks/run", "retries/run",
                  "median makespan (s)", "median $/run"});
  for (std::size_t p = 0; p < losses.size(); ++p) {
    int completed = 0;
    double fallbacks = 0, retries = 0;
    stats::PercentileSample makespans, costs;
    for (std::size_t rep = 0; rep < replicas; ++rep) {  // replica order
      const RunResult& r = runs[p * replicas + rep];
      if (r.completed) {
        ++completed;
        makespans.add(r.makespan_s);
        costs.add(r.cost_usd);
      }
      fallbacks += r.fallbacks;
      retries += r.retries;
    }
    t.add_row({stats::cell_pct(losses[p], 0), std::to_string(completed) + "/30",
               stats::cell(fallbacks / kRuns, 2),
               stats::cell(retries / kRuns, 2),
               completed ? stats::cell(makespans.median(), 2) : "-",
               completed ? stats::cell(costs.median(), 6) : "-"});
  }
  t.set_title("F9: photo-backup on WiFi with symmetric loss, 2 retries, "
              "30 runs per point (fleet-parallel)");
  report.emit(t);
  return 0;
}
