#pragma once

#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ntco/app/task_graph.hpp"
#include "ntco/common/units.hpp"
#include "ntco/device/device.hpp"
#include "ntco/net/transport.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/partition/cost_model.hpp"
#include "ntco/partition/partitioners.hpp"
#include "ntco/serverless/platform.hpp"
#include "ntco/sim/simulator.hpp"
#include "ntco/stats/accumulator.hpp"

/// \file controller.hpp
/// The framework's primary public API: profile-informed partitioning,
/// serverless resource allocation, deployment, and end-to-end execution.
///
/// Typical use (see examples/quickstart.cpp):
///
///   sim::Simulator sim;
///   serverless::Platform cloud(sim, {});
///   device::Device ue(device::budget_phone());
///   auto path = net::make_path(net::spec_4g());   // any net::Transport
///   core::OffloadController ctl(sim, cloud, ue, path, {});
///
/// The controller programs against net::Transport, so the same workflow
/// runs over a private link (net::NetworkPath) or a contention-aware
/// shared fabric (fabric::FabricPath) without modification.
///
///   const auto app = app::workloads::photo_backup();
///   partition::MinCutPartitioner mincut;
///   const auto plan = ctl.prepare(app, mincut);
///   const auto report = ctl.execute(plan, app);
///
/// prepare() is fed the *estimated* graph from the profiler in production;
/// execute() runs against the true demands, so estimate error shows up as
/// prediction-vs-measurement gap.

namespace ntco::core {

/// How execute() walks the DAG.
enum class ExecutionMode {
  /// One component at a time in topological order (the model the separable
  /// cost objective and the min-cut partitioner assume).
  Sequential,
  /// Dataflow execution: a component starts once all inputs arrived.
  /// Remote components run concurrently on the platform; local components
  /// serialise on the single UE core; boundary transfers serialise per
  /// radio direction (half-duplex up, half-duplex down).
  Parallel,
};

/// Knobs of the offloading controller.
struct ControllerConfig {
  partition::Objective objective = partition::Objective::non_time_critical();
  ExecutionMode execution_mode = ExecutionMode::Sequential;
  /// Per-component execution-time ceiling for the memory allocator
  /// (Duration::max() = cost-optimal regardless of duration).
  Duration component_deadline = Duration::max();
  /// Memory sweep granularity of the allocator.
  DataSize memory_step = DataSize::megabytes(128);
  /// Reference memory used for the planning environment (before per-
  /// function allocation fixes the real sizes).
  DataSize reference_memory = DataSize::megabytes(1792);
  /// Expected fraction of remote invocations that hit a warm instance;
  /// cold-start time is amortised into the planning overhead at (1 - rate).
  double expected_warm_rate = 0.8;
  /// Per-invocation dispatch overhead excluded from cold starts.
  Duration dispatch_overhead = Duration::millis(5);
  /// Retries per boundary transfer before giving up (relevant when the
  /// network path injects failures, see net::FlakyLink). After the final
  /// upload failure the component falls back to local execution; after the
  /// final download failure the run is aborted (results are stranded in
  /// the cloud). Parallel mode escalates any exhausted transfer to a run
  /// failure.
  std::size_t max_transfer_retries = 2;
};

/// Result of prepare(): a deployed, executable offloading plan.
struct DeploymentPlan {
  partition::Partition partition;
  partition::Environment environment;   ///< environment used for planning
  partition::CostBreakdown predicted;   ///< model-predicted totals
  /// Per-component function handle; kInvalidFunction for local components.
  /// Direct access is discouraged — prefer function_for(), which encodes
  /// "local" as nullopt instead of a sentinel; the raw field remains public
  /// only for tests that assemble plans by hand.
  std::vector<serverless::FunctionId> function_of;
  /// Per-component chosen memory (meaningful for remote components).
  /// Direct access is discouraged — prefer memory_for().
  std::vector<DataSize> memory_of;

  static constexpr serverless::FunctionId kInvalidFunction =
      std::numeric_limits<serverless::FunctionId>::max();

  [[nodiscard]] bool is_remote(app::ComponentId id) const {
    return partition.is_remote(id);
  }

  /// Deployed function serving component `id`; nullopt for components that
  /// run on the device (or ids beyond the planned graph).
  [[nodiscard]] std::optional<serverless::FunctionId> function_for(
      app::ComponentId id) const {
    if (id >= function_of.size() || function_of[id] == kInvalidFunction)
      return std::nullopt;
    return function_of[id];
  }

  /// Memory configured for component `id`'s function; nullopt for local
  /// components.
  [[nodiscard]] std::optional<DataSize> memory_for(app::ComponentId id) const {
    if (!function_for(id).has_value()) return std::nullopt;
    return memory_of[id];
  }
};

/// Measured totals of one end-to-end execution.
struct ExecutionReport {
  Duration makespan;        ///< release to final component completion
  Energy device_energy;     ///< UE battery drained by the run
  Money cloud_cost;         ///< invocation + egress cost attributable to it
  Duration local_compute;   ///< UE busy time
  Duration remote_compute;  ///< cloud execution time (excl. init/queue)
  Duration transfer;        ///< radio time across the partition boundary
  Duration waiting;         ///< UE idle time while the cloud works
  std::size_t remote_invocations = 0;
  std::size_t cold_starts = 0;
  std::size_t transfer_failures = 0;  ///< failed radio attempts (retried)
  std::size_t local_fallbacks = 0;    ///< components re-homed to the UE
  bool failed = false;  ///< run aborted (unrecoverable transfer loss)
};

/// Facade wiring profiler output, partitioner, allocator, platform, and
/// network into one offloading workflow.
class OffloadController {
 public:
  OffloadController(sim::Simulator& sim, serverless::Platform& platform,
                    device::Device& device, net::Transport& path,
                    ControllerConfig cfg);

  OffloadController(const OffloadController&) = delete;
  OffloadController& operator=(const OffloadController&) = delete;

  /// Builds the planning environment (remote speed, prices, link figures)
  /// for a graph from the attached platform, device, and network.
  [[nodiscard]] partition::Environment make_environment(
      const app::TaskGraph& g) const;

  /// Partitions `g`, sizes a serverless function for every remote
  /// component, and deploys them. `g` is normally the profiler's estimated
  /// graph.
  ///
  /// Deployment is idempotent per plan fingerprint (graph identity +
  /// placement + per-function memory/image): preparing an identical plan
  /// again reuses the already-deployed functions — and with them their
  /// warm instances — instead of registering fresh cold ones. This is what
  /// lets a plan-cache hit skip the redundant deploy cost (previously
  /// every prepare() cold-started a brand-new set of functions).
  [[nodiscard]] DeploymentPlan prepare(
      const app::TaskGraph& g, const partition::Partitioner& partitioner);

  /// As above, but plans against a caller-supplied environment instead of
  /// make_environment(g) — the broker perturbs link figures per user
  /// before planning.
  [[nodiscard]] DeploymentPlan prepare(
      const app::TaskGraph& g, const partition::Partitioner& partitioner,
      const partition::Environment& env);

  /// Executes `truth` once under `plan`, sequentially in topological
  /// order; `done` fires with the measured report. Multiple concurrent
  /// executions are allowed (they contend for warm instances naturally).
  /// `plan` must stay valid until `done` fires.
  void execute_async(const DeploymentPlan& plan, const app::TaskGraph& truth,
                     std::function<void(const ExecutionReport&)> done);

  /// Synchronous convenience: executes once and drives the simulator until
  /// the run completes.
  [[nodiscard]] ExecutionReport execute(const DeploymentPlan& plan,
                                        const app::TaskGraph& truth);

  [[nodiscard]] const ControllerConfig& config() const { return cfg_; }

  /// The transport every boundary transfer of this controller rides.
  /// Exposed for upstream layers (the broker's deadline-joint admission)
  /// that need the *nominal* link figures via spec(); the stateful timing
  /// methods commit transfers and must not be called for estimates.
  [[nodiscard]] const net::Transport& transport() const { return path_; }

  /// Attaches observability. `trace` receives the "ctl.*" spans (run
  /// begin/end, transfer attempts and retries, local fallbacks); `metrics`
  /// hosts the "core.*" instruments. Either may be null. Stable names are
  /// listed in DESIGN.md ("Observability").
  void attach_observer(obs::TraceSink* trace, obs::MetricsRegistry* metrics);

 private:
  struct RunState;
  struct RadioResult {
    bool ok = true;
    Duration elapsed;
  };
  /// Attempts a boundary transfer with retries, charging time and radio
  /// energy for every attempt (including failed ones) to `report`.
  RadioResult radio_with_retries(bool upload, DataSize bytes,
                                 ExecutionReport& report);

  void step(std::shared_ptr<RunState> run);

  // Parallel-mode machinery.
  struct ParallelRun;
  void par_component_ready(std::shared_ptr<ParallelRun> run,
                           app::ComponentId v);
  void par_start_local(std::shared_ptr<ParallelRun> run, app::ComponentId v);
  void par_component_done(std::shared_ptr<ParallelRun> run,
                          app::ComponentId v);
  void par_deliver_flow(std::shared_ptr<ParallelRun> run, std::size_t flow);
  void par_maybe_finish(const std::shared_ptr<ParallelRun>& run);

  void observe_run_end(const ExecutionReport& r);

  /// Cached instrument pointers; null when no registry is attached.
  struct Instruments {
    obs::Counter* runs = nullptr;
    obs::Counter* run_failures = nullptr;
    obs::Counter* local_fallbacks = nullptr;
    obs::Counter* transfer_failures = nullptr;
    obs::Counter* plan_deploys = nullptr;
    obs::Counter* plan_reuses = nullptr;
    stats::Accumulator* makespan_ms = nullptr;
    stats::Accumulator* cloud_cost_usd = nullptr;
    stats::Accumulator* device_energy_j = nullptr;
  };

  sim::Simulator& sim_;
  serverless::Platform& platform_;
  device::Device& device_;
  net::Transport& path_;
  ControllerConfig cfg_;
  obs::TraceSink* trace_ = nullptr;
  Instruments m_;
  /// Deployed-function memo keyed by plan fingerprint (see prepare()):
  /// identical plans reuse their FunctionIds instead of redeploying.
  std::map<std::string, std::vector<serverless::FunctionId>> deployed_;
};

}  // namespace ntco::core
