// T2 — Partitioner comparison on the four workloads.
//
// For each workload and algorithm: objective value, physical totals and
// gap to the exhaustive optimum on stdout; planning wall time (the warm
// median of bench::kTimedRuns runs after the reported one) in a separate
// table on stderr, out of the artifacts CI pins. Min-cut must sit
// at 0% gap everywhere (it is exact for the separable objective) at
// microsecond planning cost; greedy is near-optimal; the naive baselines
// bracket the range.

#include <string>

#include "bench_common.hpp"
#include "ntco/partition/partitioners.hpp"

using namespace ntco;

namespace {

void run_table(bench::ReportWriter& report, const char* title,
               const partition::Objective& objective) {
  stats::Table t({"workload", "algorithm", "objective", "latency (s)",
                  "energy (J)", "cost ($)", "gap-to-opt"});
  stats::Table clock({"workload", "algorithm", "plan time (us)"});
  for (const auto& g : app::workloads::all()) {
    partition::Environment env;
    env.device = device::budget_phone();
    const auto tech = net::profile_4g();
    env.uplink = tech.uplink;
    env.downlink = tech.downlink;
    env.uplink_latency = tech.one_way_latency;
    env.downlink_latency = tech.one_way_latency;
    const partition::CostModel model(g, env, objective);

    const auto optimal =
        model.evaluate(partition::ExhaustivePartitioner().plan(model));

    const auto portfolio = [] {
      auto p = partition::standard_portfolio(42);
      p.push_back(std::make_unique<partition::ExhaustivePartitioner>());
      return p;
    };
    const auto algos = portfolio();
    for (std::size_t i = 0; i < algos.size(); ++i) {
      const auto& algo = algos[i];
      const auto plan = algo->plan(model);
      // Random and annealing draw on every call, so each of their timed
      // runs plans on a fresh portfolio built with the same seed; the
      // others time the instance that made the reported plan, warm.
      const bool draws =
          dynamic_cast<const partition::RandomPartitioner*>(algo.get()) !=
              nullptr ||
          dynamic_cast<const partition::AnnealingPartitioner*>(algo.get()) !=
              nullptr;
      const auto micros = bench::warm_median_us([&] {
        if (!draws) return bench::time_us([&] { (void)algo->plan(model); });
        const auto fresh = portfolio();
        return bench::time_us([&] { (void)fresh[i]->plan(model); });
      });
      const auto b = model.breakdown(plan);
      t.add_row({g.name(), algo->name(), stats::cell(b.objective, 4),
                 stats::cell(b.latency.to_seconds(), 2),
                 stats::cell(b.energy.to_joules(), 2),
                 stats::cell(b.money.to_usd(), 6),
                 stats::cell_pct(b.objective / optimal - 1.0, 1)});
      clock.add_row({g.name(), algo->name(), std::to_string(micros)});
    }
  }
  t.set_title(title);
  report.emit(t);
  clock.set_title(std::string(title) + ", wall clock, warm median of " +
                  std::to_string(bench::kTimedRuns) + " runs");
  report.emit_wall_clock(clock);
}

}  // namespace

int main() {
  bench::ReportWriter report("T2", "Partitioning algorithms",
                      "min-cut gap 0% everywhere; greedy close; local-only/"
                      "remote-all/random bracket the range");
  run_table(report, "T2a: latency objective (budget phone, 4G)",
            partition::Objective::latency());
  run_table(report, "T2b: non-time-critical objective (money-dominant)",
            partition::Objective::non_time_critical());
  return 0;
}
