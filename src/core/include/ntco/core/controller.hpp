#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "ntco/app/task_graph.hpp"
#include "ntco/common/slab.hpp"
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
///
/// Execution is sequential: one component at a time in the topological
/// order prepare() stored in the plan, each boundary transfer before the
/// component that needs it — the completion-time model the separable cost
/// objective and the min-cut partitioner assume. Each run is one record in
/// a controller-owned ntco::Slab; its stages are member functions taking
/// the record's id, so every simulator event and platform callback
/// captures just [this, id]. A warm run allocates nothing in the
/// controller.

namespace ntco::core {

/// Reference memory of the planning environment, before per-function
/// allocation fixes the real sizes (also the broker's admission estimate).
inline constexpr DataSize kReferenceMemory = DataSize::megabytes(1792);

/// Retries per boundary transfer before giving up (relevant when the
/// network path injects failures, see net::FlakyLink). After the final
/// upload failure the component falls back to local execution; after the
/// final download failure the run is aborted (results are stranded in the
/// cloud).
inline constexpr std::size_t kMaxTransferRetries = 2;

/// Knobs of the offloading controller.
struct ControllerConfig {
  partition::Objective objective = partition::Objective::non_time_critical();
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
  /// Topological order of the planned graph: the order execute_async()
  /// runs the components in.
  std::vector<app::ComponentId> order;

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

/// Controller accounting over every prepare() and finished run so far.
struct ControllerStats {
  std::uint64_t runs = 0;          ///< controller runs finished
  std::uint64_t run_failures = 0;  ///< runs aborted by a lost download
  /// Components re-homed to the UE after an upload failed.
  std::uint64_t local_fallbacks = 0;
  /// Failed radio attempts, retried or not.
  std::uint64_t transfer_failures = 0;
  std::uint64_t plan_deploys = 0;  ///< distinct plan fingerprints deployed
  std::uint64_t plan_reuses = 0;   ///< deployments skipped via the memo
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
  /// graph. Throws ConfigError if `g` has a cycle, before anything is
  /// deployed.
  ///
  /// Deployment is idempotent per plan fingerprint (graph identity +
  /// placement + per-function memory/image): preparing an identical plan
  /// again reuses the already-deployed functions — and with them their
  /// warm instances — instead of registering fresh cold ones. This is what
  /// lets a plan-cache hit skip the redundant deploy cost (previously
  /// every prepare() cold-started a brand-new set of functions).
  ///
  /// Memory sizing is memoised on its exact inputs, so a component sized
  /// before costs one lookup instead of a sweep. A warm prepare() (its
  /// deployment memoised, its components sized, the partitioner reused)
  /// allocates only the plan it returns and the topological sort's
  /// in-degree scratch.
  [[nodiscard]] DeploymentPlan prepare(
      const app::TaskGraph& g, const partition::Partitioner& partitioner);

  /// As above, but plans against a caller-supplied environment instead of
  /// make_environment(g) — the broker perturbs link figures per user
  /// before planning.
  [[nodiscard]] DeploymentPlan prepare(
      const app::TaskGraph& g, const partition::Partitioner& partitioner,
      const partition::Environment& env);

  /// Executes `truth` once under `plan`, sequentially in `plan.order`;
  /// `done` fires with the measured report. `truth` must have the planned
  /// graph's components and flows (the same graph, a with_work_scaled()
  /// copy or a profiler estimate); only its work may differ. Multiple
  /// concurrent executions are allowed (they contend for warm instances
  /// naturally).
  /// `plan` must stay valid until `done` fires. The run's record is
  /// released before `done` fires, so `done` may start the next run.
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

  [[nodiscard]] const ControllerStats& stats() const { return stats_; }

  /// Attaches observability. `trace` receives the "ctl.*" spans (run
  /// begin/end, transfer attempts and retries, local fallbacks); `metrics`
  /// hosts the "core.*" summaries. Either may be null. Stable names are
  /// listed in DESIGN.md ("Observability").
  void attach_observer(obs::TraceSink* trace, obs::MetricsRegistry* metrics);

  /// Adds the "core.*" counters, read from stats(), to `metrics`.
  void publish(obs::MetricsRegistry& metrics) const;

 private:
  using Done = std::function<void(const ExecutionReport&)>;
  /// Names an in-flight run: the SlabId of its record.
  using RunId = SlabId;

  /// One in-flight run, from execute_async() until `done` fires.
  struct Run {
    const DeploymentPlan* plan = nullptr;
    const app::TaskGraph* truth = nullptr;
    std::size_t next = 0;  ///< position in plan->order of the next one
    TimePoint begin;
    TimePoint invoked;  ///< when the current remote component was invoked
    ExecutionReport report;
    Done done;
    /// Where each already-executed component actually ran (differs from
    /// the plan after an upload-failure fallback).
    std::vector<bool> ran_remote;
  };

  struct RadioResult {
    bool ok = true;
    Duration elapsed;
  };
  /// Attempts a boundary transfer with retries, charging time and radio
  /// energy for every attempt (including failed ones) to `report`.
  RadioResult radio_with_retries(bool upload, DataSize bytes,
                                 ExecutionReport& report);

  /// Runs the next component in order (its transfers now, its compute
  /// as a scheduled event), or finishes the run after the last one.
  void step(RunId id);
  /// After the upload: invokes the current component's function.
  void invoke_remote(RunId id);
  /// The current component's invocation completed.
  void remote_done(RunId id, const serverless::InvocationResult& r);
  /// Releases the run's record, then delivers its report.
  void finish(RunId id);

  void observe_run_end(const ExecutionReport& r);

  /// MemoryOptimizer::choose's pick for `comp` under the deadline the
  /// partitioner assumed, through the sized_ memo.
  DataSize size_memory(const app::Component& comp, Frequency remote_speed);

  /// Cached instrument pointers; null when no registry is attached.
  struct Instruments {
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
  ControllerStats stats_;
  /// Deployed-function memo keyed by plan fingerprint (see prepare()):
  /// identical plans reuse their FunctionIds instead of redeploying.
  /// std::less<> looks a fingerprint up as a string_view; the key is
  /// copied only on a miss. Only ever searched, never iterated, so the
  /// order of its byte keys reaches no output.
  std::map<std::string, std::vector<serverless::FunctionId>, std::less<>>
      deployed_;
  /// prepare()'s fingerprint, rebuilt per plan in a buffer that keeps its
  /// capacity: the graph name, the component count, the placement letters,
  /// then name, memory and image of each remote component. Each number is
  /// a fixed-width field of its bytes and each name follows its length, so
  /// distinct plans never share a fingerprint.
  std::string fingerprint_;

  /// The exact MemoryOptimizer::choose inputs, all integers: work in
  /// cycles, memory floor in bytes, the parallel fraction's bit pattern
  /// (size_memory() refuses NaN before the lookup; -0.0 and 0.0 size
  /// alike, so their two keys cost one miss at most), deadline in µs. The
  /// platform and the sweep step are fixed for the controller's lifetime,
  /// so these determine the answer. Keyed on inputs, never on graph or
  /// component identity: a with_work_scaled() copy keeps the names, and a
  /// caller's environment may move the deadline.
  struct SizingKey {
    std::uint64_t work;
    std::uint64_t floor;
    std::uint64_t fraction_bits;
    std::int64_t deadline_us;
    friend auto operator<=>(const SizingKey&, const SizingKey&) = default;
  };
  struct Sized {
    SizingKey key;
    DataSize memory;
  };
  /// Chosen memory per SizingKey, a flat table sorted by key and searched
  /// by binary search (tens to a few hundred entries per controller).
  std::vector<Sized> sized_;
  /// In-flight runs, one record each.
  Slab<Run> runs_;
};

}  // namespace ntco::core
