// T5 — Three-way placement: what a third (edge) site buys, and when.
//
// Per workload and objective: the best device+cloud plan, the best
// device+edge plan, and the full 3-way optimum with the sites it uses,
// plus alpha-expansion's gap to the exhaustive optimum; its runtime goes
// to a separate table on stderr, out of the artifacts CI pins.
// Expected shapes:
//  - latency objective: the edge absorbs the compute (closest, fastest);
//  - monetary objective: the 3-way optimum collapses onto device+cloud —
//    the quantitative version of the abstract's claim that delay-tolerant
//    workloads do not need edge infrastructure;
//  - battery-weighted blend: transfer-heavy workloads still pull the edge
//    in (the LAN saves radio energy) — an honest limit of the claim that
//    EXPERIMENTS.md discusses.

#include <string>

#include "bench_common.hpp"
#include "ntco/partition/multi_target.hpp"

using namespace ntco;

namespace {

double restricted_optimum(const partition::MultiCostModel& m,
                          partition::Site remote) {
  const auto& g = m.graph();
  partition::MultiPartition best =
      partition::MultiPartition::all_device(g.component_count());
  double best_v = m.evaluate(best);
  partition::MultiPartition c = best;
  const std::uint64_t combos = 1ULL << g.component_count();
  for (std::uint64_t mask = 1; mask < combos; ++mask) {
    bool ok = true;
    for (app::ComponentId id = 0; id < g.component_count(); ++id) {
      const bool rem = (mask >> id) & 1;
      if (rem && g.component(id).pinned_local) {
        ok = false;
        break;
      }
      c.site[id] = rem ? remote : partition::Site::Device;
    }
    if (!ok) continue;
    best_v = std::min(best_v, m.evaluate(c));
  }
  return best_v;
}

void run_table(bench::ReportWriter& report, const char* title, double w_lat,
               double w_energy, double w_money) {
  stats::Table t({"workload", "dev+cloud", "dev+edge", "3-way", "3-way plan",
                  "alpha gap"});
  stats::Table clock({"workload", "alpha time (us)"});
  for (const auto& g : app::workloads::all()) {
    const partition::MultiCostModel m(g, partition::default_multi_environment(),
                                      w_lat, w_energy, w_money);
    const double cloud2 = restricted_optimum(m, partition::Site::Cloud);
    const double edge2 = restricted_optimum(m, partition::Site::Edge);
    const auto p3 = partition::MultiExhaustivePartitioner().plan(m);
    const double v3 = m.evaluate(p3);

    const partition::AlphaExpansionPartitioner alpha_expansion;
    const auto alpha = alpha_expansion.plan(m);
    const auto us = bench::warm_median_us([&] {
      return bench::time_us([&] { (void)alpha_expansion.plan(m); });
    });

    t.add_row({g.name(), stats::cell(cloud2, 4), stats::cell(edge2, 4),
               stats::cell(v3, 4), p3.to_string(),
               stats::cell_pct(m.evaluate(alpha) / v3 - 1.0, 2)});
    clock.add_row({g.name(), std::to_string(us)});
  }
  t.set_title(title);
  report.emit(t);
  clock.set_title(std::string(title) + ", wall clock, warm median of " +
                  std::to_string(bench::kTimedRuns) + " runs");
  report.emit_wall_clock(clock);
}

}  // namespace

int main() {
  bench::ReportWriter report("T5", "Device/edge/cloud 3-way placement",
                      "latency objective uses the edge; monetary objective "
                      "collapses to device+cloud (no edge needed for "
                      "non-time-critical work); battery blends pull the "
                      "edge back for data-heavy apps");
  run_table(report,
            "T5a: latency objective (plan letters: D=device E=edge C=cloud)",
            1.0, 0.0, 0.0);
  run_table(report, "T5b: monetary objective (tiny latency tie-break)", 0.0001,
            0.0, 1.0);
  run_table(report,
            "T5c: battery-weighted blend (latency 0.01, energy 0.1, money 1)",
            0.01, 0.1, 1.0);
  return 0;
}
