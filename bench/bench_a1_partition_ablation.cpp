// A1 — Partitioner ablation on random DAG families.
//
// (a) Solution quality: mean gap to the exhaustive optimum over random
//     layered DAGs small enough to enumerate. Min-cut must be 0%; greedy
//     and annealing close; random/remote-all far.
// (b) Scaling: greedy's gap to min-cut as graphs grow to hundreds of
//     components, where only min-cut remains both optimal and fast. The
//     planning times go to stderr: wall-clock figures stay out of stdout
//     and the artifacts, which CI pins.

#include <vector>

#include "bench_common.hpp"
#include "ntco/app/generators.hpp"
#include "ntco/fleet/replicator.hpp"
#include "ntco/partition/partitioners.hpp"

using namespace ntco;

namespace {

partition::Environment random_env(Rng& rng) {
  partition::Environment env;
  env.device = device::budget_phone();
  env.remote_speed = Frequency::gigahertz(rng.uniform(1.5, 6.0));
  env.uplink = DataRate::megabits_per_second(
      static_cast<std::uint64_t>(rng.uniform_int(2, 80)));
  env.downlink = env.uplink * 2.0;
  env.uplink_latency = Duration::millis(rng.uniform_int(5, 60));
  env.downlink_latency = env.uplink_latency;
  return env;
}

app::TaskGraph random_graph(std::size_t components, Rng& rng) {
  app::GeneratorParams gp;
  gp.components = components;
  gp.mean_work =
      Cycles::mega(static_cast<std::uint64_t>(rng.uniform_int(100, 4000)));
  gp.mean_flow = DataSize::kilobytes(
      static_cast<std::uint64_t>(rng.uniform_int(20, 2000)));
  const auto layers =
      std::max<std::size_t>(2, std::min<std::size_t>(components / 3, 6));
  return app::layered_random(layers, gp, rng.fork(1));
}

}  // namespace

int main() {
  bench::ReportWriter report("A1", "Partitioner ablation on random DAGs",
                      "min-cut 0% gap at all sizes; heuristic gaps grow; "
                      "exhaustive infeasible past ~20 components");

  // --- (a) Quality against ground truth (small graphs). ------------------
  // Trials are independent, so they run as fleet shards: each shard owns
  // its own portfolio (the Random/Annealing baselines keep internal rng
  // state) and its per-algorithm gaps merge in shard order.
  {
    stats::Table t({"algorithm", "mean gap", "max gap", "opt found"});
    const int kTrials = 30;
    const auto names = [] {
      std::vector<std::string> out;
      for (const auto& p : partition::standard_portfolio(11))
        out.push_back(p->name());
      return out;
    }();

    struct TrialResult {
      std::vector<double> gaps;
      std::vector<bool> exact;
    };
    fleet::Replicator rep(500);
    const auto trials = rep.map(
        static_cast<std::size_t>(kTrials), [&](fleet::ShardContext& ctx) {
          auto portfolio = partition::standard_portfolio(11 + ctx.shard);
          Rng rng = ctx.rng;
          const auto g = random_graph(
              static_cast<std::size_t>(rng.uniform_int(8, 16)), rng);
          const partition::CostModel model(g, random_env(rng),
                                           partition::Objective::latency());
          const double opt =
              model.evaluate(partition::ExhaustivePartitioner().plan(model));
          TrialResult out;
          for (const auto& p : portfolio) {
            const double got = model.evaluate(p->plan(model));
            out.gaps.push_back(got / opt - 1.0);
            out.exact.push_back(got <= opt * (1.0 + 1e-9));
          }
          return out;
        });

    std::vector<stats::Accumulator> gap(names.size());
    std::vector<int> exact_hits(names.size(), 0);
    for (const TrialResult& trial : trials) {  // shard order
      for (std::size_t a = 0; a < names.size(); ++a) {
        gap[a].add(trial.gaps[a]);
        if (trial.exact[a]) ++exact_hits[a];
      }
    }
    for (std::size_t a = 0; a < names.size(); ++a)
      t.add_row({names[a], stats::cell_pct(gap[a].mean(), 1),
                 stats::cell_pct(gap[a].max(), 1),
                 stats::cell_pct(static_cast<double>(exact_hits[a]) / kTrials,
                                 0)});
    t.set_title("A1a: gap to exhaustive optimum (30 random DAGs, 8-16 "
                "components, fleet-parallel trials)");
    report.emit(t);
  }

  // --- (b) Planning-time scaling. -----------------------------------------
  {
    stats::Table t({"components", "greedy gap to min-cut"});
    stats::Table clock(
        {"components", "min-cut (us)", "greedy (us)", "annealing (us)"});
    for (const std::size_t n : {16u, 32u, 64u, 128u, 256u, 512u}) {
      Rng rng(900 + n);
      const auto g = random_graph(n, rng);
      const partition::CostModel model(g, random_env(rng),
                                       partition::Objective::latency());
      // Plans once for the reported value, then times kTimedRuns runs of
      // what `make` builds: the deterministic partitioners reuse theirs,
      // annealing gets a fresh instance per run (it draws on every call).
      auto timed = [&](auto make, double* value) {
        *value = model.evaluate(make().plan(model));
        return bench::warm_median_us([&] {
          const auto& p = make();
          return bench::time_us([&] { (void)p.plan(model); });
        });
      };
      double cut_v = 0, greedy_v = 0, anneal_v = 0;
      const partition::MinCutPartitioner cut;
      const partition::GreedyPartitioner greedy;
      const auto cut_us = timed([&]() -> const auto& { return cut; }, &cut_v);
      const auto greedy_us =
          timed([&]() -> const auto& { return greedy; }, &greedy_v);
      partition::AnnealingPartitioner::Params ap;
      ap.iterations = 20'000;
      const auto anneal_us = timed(
          [&] { return partition::AnnealingPartitioner(ap, rng.fork(2)); },
          &anneal_v);
      t.add_row({std::to_string(n),
                 stats::cell_pct(greedy_v / cut_v - 1.0, 2)});
      clock.add_row({std::to_string(n), std::to_string(cut_us),
                     std::to_string(greedy_us), std::to_string(anneal_us)});
    }
    t.set_title("A1b: greedy gap to min-cut vs graph size (planning times "
                "on stderr)");
    report.emit(t);
    clock.set_title("A1b: planning time vs graph size (wall clock, warm "
                    "median of " + std::to_string(bench::kTimedRuns) +
                    " runs per size)");
    report.emit_wall_clock(clock);
  }
  return 0;
}
