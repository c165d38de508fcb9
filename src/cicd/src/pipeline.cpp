#include "ntco/cicd/pipeline.hpp"

#include "ntco/common/error.hpp"

namespace ntco::cicd {

const StageRecord* ReleaseReport::stage(const std::string& name) const {
  for (const auto& s : stages)
    if (s.name == name) return &s;
  return nullptr;
}

ReleasePipeline::ReleasePipeline(sim::Simulator& sim,
                                 core::OffloadController& controller,
                                 PipelineConfig cfg, Rng rng)
    : sim_(sim), controller_(controller), cfg_(cfg), rng_(rng) {
  if (cfg.test_failure_rate < 0.0 || cfg.test_failure_rate > 1.0)
    throw ConfigError("test_failure_rate must lie in [0, 1]");
  if (cfg.regression_tolerance < 0.0)
    throw ConfigError("regression_tolerance must be non-negative");
  if (cfg.canary_runs == 0) throw ConfigError("canary_runs must be positive");
  if (cfg.profile_runs == 0)
    throw ConfigError("profile_runs must be positive");
}

void ReleasePipeline::wait(Duration d) {
  bool elapsed = false;
  sim_.schedule_after(d, [&elapsed] { elapsed = true; });
  while (!elapsed && sim_.step()) {
  }
}

double measured_objective(const partition::Objective& weights,
                          const core::ExecutionReport& r) {
  return weights.scalarize(r.makespan, r.device_energy, r.cloud_cost);
}

ReleaseReport ReleasePipeline::run_release(
    const app::TaskGraph& truth, const partition::Partitioner& partitioner,
    const core::DeploymentPlan* incumbent, double profile_bias) {
  NTCO_EXPECTS(profile_bias > 0.0);
  ReleaseReport report;
  const TimePoint released_at = sim_.now();

  auto run_stage = [&](const std::string& name, Duration d, bool ok,
                       std::string detail = "") {
    wait(d);
    report.stages.push_back(StageRecord{name, d, ok, std::move(detail)});
    return ok;
  };

  // Build -> Test -> Package: conventional stages the offloading steps
  // extend, modelled by their wall time (and the test stage's verdict).
  (void)run_stage("build", kBuildTime, true);
  const bool tests_pass = !rng_.bernoulli(cfg_.test_failure_rate);
  if (!run_stage("test", kTestTime, tests_pass,
                 tests_pass ? "" : "unit tests failed")) {
    report.aborted = true;
    report.total_duration = sim_.now() - released_at;
    return report;
  }
  (void)run_stage("package", kPackageTime, true);

  // Profile: collect instrumented runs of the new build.
  profile::TraceGenerator gen(truth, kProfileCv,
                              rng_.fork(rng_.next_u64()), profile_bias);
  profile::DemandProfiler profiler(truth.component_count(),
                                   truth.flow_count());
  for (std::size_t i = 0; i < cfg_.profile_runs; ++i) profiler.ingest(gen.next());
  (void)run_stage("profile",
                  kTimePerProfileRun * static_cast<double>(cfg_.profile_runs),
                  true,
                  std::to_string(cfg_.profile_runs) + " runs");
  const auto estimated = profiler.estimated_graph(truth);

  // Partition + allocate + deploy: the offloading-specific stage.
  core::DeploymentPlan candidate = controller_.prepare(estimated, partitioner);
  (void)run_stage("partition+deploy", Duration::seconds(20), true,
                  partitioner.name());

  // Canary: execute candidate (and incumbent, if any) on live-like traffic
  // against the *true* application behaviour.
  const TimePoint canary_begin = sim_.now();
  const partition::Objective& weights = controller_.config().objective;
  double candidate_sum = 0.0;
  for (std::size_t i = 0; i < cfg_.canary_runs; ++i)
    candidate_sum +=
        measured_objective(weights, controller_.execute(candidate, truth));
  report.candidate_objective =
      candidate_sum / static_cast<double>(cfg_.canary_runs);

  if (incumbent != nullptr) {
    double incumbent_sum = 0.0;
    for (std::size_t i = 0; i < cfg_.canary_runs; ++i)
      incumbent_sum +=
          measured_objective(weights, controller_.execute(*incumbent, truth));
    report.incumbent_objective =
        incumbent_sum / static_cast<double>(cfg_.canary_runs);
  }
  report.stages.push_back(StageRecord{"canary", sim_.now() - canary_begin,
                                      true,
                                      std::to_string(cfg_.canary_runs) +
                                          " runs each"});

  // Promote unless the candidate regresses beyond tolerance.
  const bool regression =
      incumbent != nullptr &&
      report.candidate_objective >
          report.incumbent_objective * (1.0 + cfg_.regression_tolerance);
  report.promoted = !regression;
  report.stages.push_back(StageRecord{
      report.promoted ? "promote" : "rollback", Duration::seconds(5), true,
      regression ? "candidate regressed beyond tolerance" : ""});
  wait(Duration::seconds(5));
  if (report.promoted) report.plan = std::move(candidate);

  report.total_duration = sim_.now() - released_at;
  return report;
}

}  // namespace ntco::cicd
