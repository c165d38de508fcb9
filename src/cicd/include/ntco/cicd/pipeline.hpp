#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ntco/app/task_graph.hpp"
#include "ntco/common/rng.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/partition/partitioners.hpp"
#include "ntco/profile/profiler.hpp"
#include "ntco/sim/simulator.hpp"

/// \file pipeline.hpp
/// Offloading integrated into a CI/CD release process (the abstract's
/// fourth contribution).
///
/// A release runs Build -> Test -> Package -> Profile -> Partition+Allocate
/// -> Deploy -> Canary -> Promote/Rollback. The profile stage collects
/// instrumented runs and builds the estimated graph; the partition stage is
/// core::OffloadController::prepare(); the canary executes the candidate
/// plan alongside the incumbent on live-like traffic and only promotes if
/// the measured objective does not regress beyond tolerance. In operation,
/// profile::DriftDetector watches each production run's total demand and
/// says when a re-release is due (continuous re-partitioning).

namespace ntco::cicd {

/// Pipeline stage outcome.
struct StageRecord {
  std::string name;
  Duration duration;
  bool ok = true;
  std::string detail;
};

/// Wall time of the conventional stages every release runs.
inline constexpr Duration kBuildTime = Duration::minutes(3);
inline constexpr Duration kTestTime = Duration::minutes(5);
inline constexpr Duration kPackageTime = Duration::minutes(1);
/// Run-to-run demand variation the profile stage's instrumentation
/// observes.
inline constexpr double kProfileCv = 0.3;
/// Wall time per instrumented run (profiling throughput).
inline constexpr Duration kTimePerProfileRun = Duration::seconds(30);

/// Pipeline knobs.
struct PipelineConfig {
  /// Probability a release fails in the test stage (exercises the abort
  /// path; deterministic 0 by default).
  double test_failure_rate = 0.0;

  /// Instrumented runs collected by the profile stage.
  std::size_t profile_runs = 40;

  /// Canary executions of candidate and incumbent each.
  std::size_t canary_runs = 10;
  /// Candidate may be at most this much worse than the incumbent on the
  /// measured objective and still promote.
  double regression_tolerance = 0.10;
};

/// Outcome of one release.
struct ReleaseReport {
  std::vector<StageRecord> stages;
  bool promoted = false;
  bool aborted = false;  ///< stopped before canary (test failure)
  double candidate_objective = 0.0;  ///< measured mean objective in canary
  double incumbent_objective = 0.0;  ///< 0 when there is no incumbent
  std::optional<core::DeploymentPlan> plan;  ///< set when promoted
  Duration total_duration;

  [[nodiscard]] const StageRecord* stage(const std::string& name) const;
};

/// Orchestrates releases of one application through the offloading-aware
/// pipeline.
class ReleasePipeline {
 public:
  ReleasePipeline(sim::Simulator& sim, core::OffloadController& controller,
                  PipelineConfig cfg, Rng rng);

  /// Runs one release against `truth` (the application's real behaviour)
  /// using `partitioner`. `incumbent` is the currently promoted plan, if
  /// any. `profile_bias` models a systematically wrong profile (1.0 =
  /// faithful); the canary stage is what catches plans built from bad
  /// profiles. Drives the simulator synchronously until the release
  /// finishes.
  [[nodiscard]] ReleaseReport run_release(
      const app::TaskGraph& truth, const partition::Partitioner& partitioner,
      const core::DeploymentPlan* incumbent, double profile_bias = 1.0);

 private:
  sim::Simulator& sim_;
  core::OffloadController& controller_;
  PipelineConfig cfg_;
  Rng rng_;

  void wait(Duration d);  ///< advances simulated time synchronously
};

/// Measured-objective scalarisation the canary gate judges by: the
/// controller's weights (`controller.config().objective`) applied to a
/// run's measured totals.
[[nodiscard]] double measured_objective(const partition::Objective& weights,
                                        const core::ExecutionReport& r);

}  // namespace ntco::cicd
