// Scenario: offloading decisions live inside the release pipeline. Three
// releases of the on-device personalisation (ML batch training) service:
//   v1  first release — profiled, partitioned, canaried, promoted;
//   v2  built from a corrupted profile — the canary catches the regression
//       and rolls back;
//   v3  triggered by the drift detector after the workload grows 6x — the
//       re-partition promotes and restores the objective.
//
// Demonstrates: ReleasePipeline stages, canary promotion gates, and a
// profile::DriftDetector that triggers the next release.

#include <cstdio>

#include "ntco/app/workloads.hpp"
#include "ntco/cicd/pipeline.hpp"
#include "ntco/net/path.hpp"
#include "ntco/profile/profiler.hpp"

using namespace ntco;

namespace {

void print_release(const char* tag, const cicd::ReleaseReport& r) {
  std::printf("\n=== release %s (%s) ===\n", tag,
              r.aborted ? "ABORTED" : (r.promoted ? "PROMOTED" : "ROLLED BACK"));
  for (const auto& s : r.stages)
    std::printf("  %-18s %10s  %s %s\n", s.name.c_str(),
                to_string(s.duration).c_str(), s.ok ? "ok" : "FAIL",
                s.detail.c_str());
  if (!r.aborted)
    std::printf("  canary objective: candidate %.3f vs incumbent %.3f\n",
                r.candidate_objective, r.incumbent_objective);
  std::printf("  wall time: %s\n", to_string(r.total_duration).c_str());
}

}  // namespace

int main() {
  sim::Simulator sim;
  serverless::Platform cloud(sim, serverless::PlatformConfig{});
  device::Device phone(device::budget_phone());
  auto path = net::make_fixed_path(net::profile_4g());
  core::ControllerConfig ccfg;
  ccfg.objective = partition::Objective::latency();
  core::OffloadController controller(sim, cloud, phone, path, ccfg);

  cicd::PipelineConfig pcfg;
  pcfg.canary_runs = 5;
  pcfg.profile_runs = 30;
  pcfg.regression_tolerance = 0.05;  // promote only within 5% of incumbent
  cicd::ReleasePipeline pipeline(sim, controller, pcfg, Rng(11));

  const auto v1_app = app::workloads::ml_batch_training();
  const partition::MinCutPartitioner mincut;

  // v1: first release of the service.
  const auto v1 = pipeline.run_release(v1_app, mincut, nullptr);
  print_release("v1", v1);

  // v2: someone breaks the instrumentation; demands come in 50x too low,
  // so the candidate keeps the heavy forecast stage on the phone.
  const auto v2 = pipeline.run_release(v1_app, mincut, &*v1.plan,
                                       /*profile_bias=*/0.02);
  print_release("v2 (bad profile)", v2);

  // Production drifts: the dataset grows 6x. The drift detector sees
  // per-run demand rise and asks for a re-release.
  const auto drifted_app = v1_app.with_work_scaled(6.0);
  profile::DriftDetector drift(0.3, 15);
  for (int i = 0; i < 15; ++i) (void)drift.observe(v1_app.total_work());
  int runs_until_trigger = 0;
  while (!drift.observe(drifted_app.total_work())) ++runs_until_trigger;
  std::printf("\ndrift detected after %d production runs (+%.0f%% demand)\n",
              runs_until_trigger + 1, drift.relative_change() * 100.0);

  const auto v3 = pipeline.run_release(drifted_app, mincut, &*v1.plan);
  drift.reset_baseline();
  print_release("v3 (post-drift)", v3);

  std::printf("\npipeline verdicts: v1 %s, v2 %s, v3 %s\n",
              v1.promoted ? "promoted" : "rolled back",
              v2.promoted ? "promoted" : "rolled back",
              v3.promoted ? "promoted" : "rolled back");
  return 0;
}
