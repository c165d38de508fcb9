// T5 — Three-way placement: what a third (edge) site buys, and when.
//
// Per workload and objective: the best device+cloud plan and the best
// device+edge plan (the framework's min-cut over that site alone, scored
// by the three-site model), the full 3-way optimum with the sites it
// uses, and alpha-expansion's gap to the exhaustive optimum; its runtime
// goes to a separate table on stderr, out of the artifacts CI pins.
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
#include "ntco/partition/partitioners.hpp"

using namespace ntco;

namespace {

void run_table(bench::ReportWriter& report, const char* title,
               partition::Objective w) {
  const auto env = partition::default_multi_environment();
  stats::Table t({"workload", "dev+cloud", "dev+edge", "3-way", "3-way plan",
                  "alpha gap"});
  stats::Table clock({"workload", "alpha time (us)"});
  for (const auto& g : app::workloads::all()) {
    const partition::MultiCostModel m(g, env, w);
    // The framework's min-cut over the device and one site, scored by the
    // three-site model.
    const auto two_site = [&](const partition::Environment& site,
                              partition::Site remote) {
      const auto p = partition::MinCutPartitioner().plan(
          partition::CostModel(g, site, w));
      auto sites = partition::MultiPartition::all_device(g.component_count());
      for (app::ComponentId id = 0; id < g.component_count(); ++id)
        if (p.is_remote(id)) sites.site[id] = remote;
      return m.evaluate(sites);
    };
    const double cloud2 = two_site(env.cloud, partition::Site::Cloud);
    const double edge2 = two_site(env.edge, partition::Site::Edge);
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
            partition::Objective::latency());
  run_table(report, "T5b: monetary objective (tiny latency tie-break)",
            {0.0001, 0.0, 1.0});
  run_table(report,
            "T5c: battery-weighted blend (latency 0.01, energy 0.1, money 1)",
            partition::Objective::non_time_critical());
  return 0;
}
