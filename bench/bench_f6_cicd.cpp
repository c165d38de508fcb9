// F6 — CI/CD integration: stage costs, canary catch rate, drift benefit.
//
// (a) Wall-time breakdown of a release — the offloading stages (profile,
//     partition+deploy, canary) add minutes, not hours, to a conventional
//     pipeline.
// (b) Canary verdicts over releases whose profiles are faithful vs.
//     corrupted: faithful candidates promote, corrupted ones roll back.
// (c) After an 8x compute drift flips the optimal partition, the
//     drift-triggered re-release recovers the objective the stale plan
//     forfeits.

#include "bench_common.hpp"
#include "ntco/profile/profiler.hpp"

using namespace ntco;

int main() {
  bench::ReportWriter report("F6", "CI/CD pipeline integration",
                      "offloading stages add ~17 min; canary catches bad "
                      "profiles; re-release recovers drift losses");

  // --- (a) Stage breakdown of a clean release. ---------------------------
  {
    bench::World w(bench::latency_cfg(), net::profile_4g());
    cicd::PipelineConfig cfg;
    cfg.canary_runs = 5;
    cicd::ReleasePipeline pipeline(w.sim, w.controller, cfg, Rng(1));
    const auto rel = pipeline.run_release(app::workloads::photo_backup(),
                                          partition::MinCutPartitioner{},
                                          nullptr);
    stats::Table t({"stage", "duration", "detail"});
    for (const auto& s : rel.stages)
      t.add_row({s.name, to_string(s.duration), s.detail});
    t.add_row({"TOTAL", to_string(rel.total_duration), ""});
    t.set_title("F6a: release stage breakdown (photo-backup)");
    report.emit(t);
  }

  // --- (b) Canary catch rate over 20 releases. ---------------------------
  {
    stats::Table t({"profile quality", "releases", "promoted", "rolled back",
                    "correct verdicts"});
    for (const bool faithful : {true, false}) {
      int promoted = 0, rolled_back = 0;
      const int releases = 10;
      for (int i = 0; i < releases; ++i) {
        bench::World w(bench::latency_cfg(), net::profile_4g());
        cicd::PipelineConfig cfg;
        cfg.canary_runs = 5;
        cfg.regression_tolerance = 0.05;
        cicd::ReleasePipeline pipeline(w.sim, w.controller, cfg,
                                       Rng(100 + static_cast<std::uint64_t>(i)));
        const auto g = app::workloads::ml_batch_training();
        const auto incumbent = pipeline.run_release(
            g, partition::MinCutPartitioner{}, nullptr);
        const auto candidate = pipeline.run_release(
            g, partition::MinCutPartitioner{}, &*incumbent.plan,
            faithful ? 1.0 : 0.02);
        (candidate.promoted ? promoted : rolled_back)++;
      }
      const int correct = faithful ? promoted : rolled_back;
      t.add_row({faithful ? "faithful (bias 1.0)" : "corrupted (bias 0.02)",
                 std::to_string(releases), std::to_string(promoted),
                 std::to_string(rolled_back),
                 stats::cell_pct(static_cast<double>(correct) / releases, 0)});
    }
    t.set_title("F6b: canary verdicts (5% regression tolerance)");
    report.emit(t);
  }

  // --- (c) Drift: stale plan vs re-released plan. -------------------------
  {
    bench::World w(bench::latency_cfg(), net::profile_4g());
    cicd::PipelineConfig cfg;
    cfg.canary_runs = 5;
    cicd::ReleasePipeline pipeline(w.sim, w.controller, cfg, Rng(7));
    // Video transcode is all-local at its shipped demand (transfer-bound)
    // but its optimum flips to offloading once per-frame compute grows 8x:
    // the stale plan then leaves a large win on the table.
    const auto original = app::workloads::video_transcode();
    const auto v1 = pipeline.run_release(original,
                                         partition::MinCutPartitioner{},
                                         nullptr);
    const auto drifted = original.with_work_scaled(8.0);

    // Production keeps running the stale plan against the drifted truth.
    stats::Accumulator stale;
    for (int i = 0; i < 10; ++i)
      stale.add(cicd::measured_objective(
          w.controller.config().objective,
          w.controller.execute(*v1.plan, drifted)));

    profile::DriftDetector drift(0.3, 10);
    for (int i = 0; i < 10; ++i) (void)drift.observe(original.total_work());
    int runs = 0;
    while (!drift.observe(drifted.total_work())) ++runs;

    const auto v2 = pipeline.run_release(drifted,
                                         partition::MinCutPartitioner{},
                                         &*v1.plan);
    stats::Accumulator fresh;
    for (int i = 0; i < 10; ++i)
      fresh.add(cicd::measured_objective(
          w.controller.config().objective,
          w.controller.execute(*v2.plan, drifted)));

    stats::Table t({"metric", "value"});
    t.add_row({"runs to detect 8x drift", std::to_string(runs + 1)});
    t.add_row({"stale-plan objective (mean of 10)", stats::cell(stale.mean(), 2)});
    t.add_row({"re-released objective (mean of 10)", stats::cell(fresh.mean(), 2)});
    t.add_row({"improvement", stats::cell_pct(1.0 - fresh.mean() / stale.mean(), 1)});
    t.add_row({"v2 promoted", v2.promoted ? "yes" : "no"});
    t.set_title("F6c: drift-triggered re-partition (video-transcode, 8x demand)");
    report.emit(t);
  }
  return 0;
}
