#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ntco/common/inline_function.hpp"
#include "ntco/common/price_window.hpp"
#include "ntco/common/rng.hpp"
#include "ntco/common/slab.hpp"
#include "ntco/common/units.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/sim/simulator.hpp"
#include "ntco/stats/accumulator.hpp"

/// \file platform.hpp
/// Serverless (FaaS) platform simulator.
///
/// Models the provider behaviour that matters to offloading economics:
///  - memory-proportional CPU share (an AWS-Lambda-like `mem / 1792 MB`
///    vCPU fraction, capped at a vCPU ceiling),
///  - warm instance reuse with LIFO keep-alive and expiry,
///  - cold starts proportional to deployment image size,
///  - provisioned concurrency (always-warm instances billed while idle),
///  - GB-second + per-request billing with 1 ms rounding,
///  - an account-wide concurrency limit with FIFO throttling,
///  - time-of-day price multipliers (stand-in for spot/off-peak pricing;
///    see DESIGN.md substitution notes).
///
/// The platform models the compute side only; network transfer to/from the
/// UE is accounted by the caller (core::OffloadController), which knows the
/// link.

namespace ntco::serverless {

/// Handle to a deployed function.
using FunctionId = std::uint32_t;

/// Handle to one in-flight invocation: the SlabId of its record. Returned
/// by invoke()/resume() so callers holding delay-tolerant jobs can
/// checkpoint them mid-run (see checkpoint_preempt()). It goes stale when
/// the result is delivered, and its slot is then reused under a new
/// generation, so a stale handle never names a later invocation. Never 0:
/// callers may use 0 for "no live invocation".
using InvocationId = SlabId;

/// Time-of-day pricing window — the shared definition in
/// <ntco/common/price_window.hpp>, re-exported so existing
/// serverless::PriceWindow spellings keep compiling. The continuum
/// federation estimates with the same type and helper, so placement cost
/// accounting cannot drift from platform billing.
using PriceWindow = ntco::PriceWindow;

/// Provider parameters. Defaults approximate a large public FaaS offering.
struct PlatformConfig {
  /// Full-share core speed; effective speed scales with memory.
  Frequency core_speed = Frequency::gigahertz(2.5);
  /// Memory that buys exactly one full vCPU.
  DataSize full_share_memory = DataSize::megabytes(1792);
  /// Upper bound on vCPUs regardless of memory.
  double max_vcpus = 6.0;
  DataSize min_memory = DataSize::megabytes(128);
  DataSize max_memory = DataSize::megabytes(10240);
  /// Configurable memory granularity.
  DataSize memory_quantum = DataSize::megabytes(64);

  Money price_per_gb_second = Money::nano_usd(16'667);  // $0.0000166667
  Money price_per_request = Money::nano_usd(200);       // $0.0000002
  /// Idle provisioned capacity price (per GB-second, cheaper than exec).
  Money provisioned_price_per_gb_second = Money::nano_usd(4'167);
  /// Billing granularity for execution time.
  Duration billing_quantum = Duration::millis(1);

  Duration cold_start_base = Duration::millis(180);
  /// Image bytes installed per second during a cold start.
  DataRate image_install_rate = DataRate::megabits_per_second(400);
  Duration keep_alive = Duration::minutes(10);

  /// Account-wide concurrent execution limit; excess invocations queue.
  std::size_t account_concurrency = 1000;

  /// Optional time-of-day execution-price multipliers.
  std::vector<PriceWindow> price_windows;

  /// Spot tier: execution price factor relative to on-demand.
  double spot_price_multiplier = 0.3;
  /// Mean time until a running spot execution is preempted (exponential).
  /// Duration::zero() disables preemption entirely.
  Duration spot_mean_time_to_preempt = Duration::minutes(10);
  /// Seed of the platform's internal randomness (spot preemption draws).
  std::uint64_t seed = 0x5EED;
};

/// Capacity tier of one invocation.
enum class Tier : std::uint8_t {
  OnDemand,  ///< full price, never preempted
  Spot,      ///< discounted, may be preempted mid-execution
};

/// Deployment descriptor for one function (one code partition).
struct FunctionSpec {
  std::string name;
  DataSize memory = DataSize::megabytes(256);  ///< configured memory
  DataSize image = DataSize::megabytes(30);    ///< deployment package size
  /// Amdahl parallel fraction of the function body: how much of the work
  /// can exploit vCPUs beyond the first (1.0 = embarrassingly parallel).
  double parallel_fraction = 1.0;
};

/// Outcome of one invocation, delivered to the completion callback.
struct InvocationResult {
  TimePoint submitted;
  TimePoint started;   ///< when compute began (after queueing + cold start)
  TimePoint finished;
  bool cold_start = false;
  bool preempted = false;  ///< spot execution killed before completion
  Tier tier = Tier::OnDemand;
  Duration queue_wait;  ///< time throttled by the concurrency limit
  Duration init_time;   ///< cold-start time paid (zero when warm)
  Duration exec_time;   ///< execution time consumed (partial if preempted)
  Duration exec_credit;  ///< prior exec credited by resume() (zero otherwise)
  Money cost;           ///< execution + request cost of this invocation
};

/// Progress snapshot of an in-flight invocation (see in_flight()).
struct InFlightStatus {
  bool executing = false;  ///< false while still queued by the throttle
  Duration consumed;       ///< exec time burned so far (excl. credit)
  Duration remaining;      ///< exec time still ahead at this configuration
};

/// Aggregate platform accounting.
struct PlatformStats {
  std::uint64_t invocations = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t warm_reuses = 0;  ///< admissions onto an idle instance
  std::uint64_t throttled = 0;  ///< invocations that had to queue
  /// Executions cut short by a spot draw or a checkpoint_preempt().
  std::uint64_t preemptions = 0;
  Duration total_exec;
  Money exec_cost;
  Money request_cost;
  Money provisioned_cost;  ///< accrued idle-capacity cost (query-time lazy)
  std::size_t peak_concurrency = 0;
};

/// Discrete-event serverless platform. Non-copyable; lives alongside one
/// sim::Simulator.
class Platform {
 public:
  /// Completion callback, stored inline in the invocation's record: a
  /// capture of up to 48 bytes (e.g. [this, id]) never allocates.
  using Callback = InlineFunction<void(const InvocationResult&), 48>;

  Platform(sim::Simulator& sim, PlatformConfig cfg);

  Platform(const Platform&) = delete;
  Platform& operator=(const Platform&) = delete;

  /// Attaches observability. `trace` receives the "faas.*" span records
  /// (cold starts, warm reuse, throttling, spot preemption); `metrics`
  /// hosts the "serverless.*" summaries. Either may be null; with both
  /// null the hooks cost one branch per event. Stable names are listed in
  /// DESIGN.md ("Observability").
  void attach_observer(obs::TraceSink* trace, obs::MetricsRegistry* metrics);

  /// Adds the "serverless.*" counters, read from stats(), to `metrics`.
  void publish(obs::MetricsRegistry& metrics) const;

  /// Registers a function. Memory is validated against provider limits and
  /// must be quantum-aligned (use quantize_memory()). Throws ConfigError.
  FunctionId deploy(FunctionSpec spec);

  /// Replaces the spec of a deployed function (new version): existing warm
  /// instances are invalidated, so the next invocation is cold. An
  /// instance still running the old version when redeploy() is called is
  /// torn down when that invocation finishes, never pooled or counted as
  /// provisioned capacity of the new version.
  void redeploy(FunctionId id, FunctionSpec spec);

  /// Keeps `n` instances permanently warm for the function. Takes effect
  /// immediately; idle provisioned capacity accrues cost until changed.
  void set_provisioned_concurrency(FunctionId id, std::size_t n);

  /// Asynchronously executes `work` on the function. `done` fires when the
  /// invocation completes — or, for Tier::Spot, when it is preempted
  /// (result.preempted == true, exec_time partial, billed at the spot
  /// price); retrying is the caller's policy (see sched::DeferredExecutor).
  /// The returned handle stays valid until `done` fires.
  InvocationId invoke(FunctionId id, Cycles work, Callback done,
                      Tier tier = Tier::OnDemand);

  // --- Checkpoint / resume hooks (continuum::Federation) -----------------

  /// As invoke(), but credits `exec_credit` of already-performed execution
  /// (from a checkpointed earlier run, here or on another site): only the
  /// remaining exec time is simulated and billed. The earlier partial run
  /// was already billed by its own invocation at its own tier rate, so
  /// nothing is double-charged. Credit beyond the full exec time clamps to
  /// an immediate (zero-exec) completion.
  InvocationId resume(FunctionId id, Cycles work, Duration exec_credit,
                      Callback done, Tier tier = Tier::OnDemand);

  /// Forces a checkpoint-preemption of an in-flight invocation: the job is
  /// stopped where it stands and its callback fires *now* with
  /// `preempted == true` and the partial exec billed at the invocation's
  /// tier rate — indistinguishable from a spot preemption, so one caller
  /// path handles both. A queued (still-throttled) invocation is removed
  /// and completes with zero exec and zero cost. Returns false when the
  /// handle names no invocation in flight (its result was delivered, or it
  /// was never minted). The executing instance is torn down, exactly like
  /// a spot preemption.
  bool checkpoint_preempt(InvocationId id);

  /// Progress of an in-flight invocation; nullopt once its result was
  /// delivered, or for a handle never minted.
  /// `remaining` reports the planned tail at this memory configuration and
  /// does not anticipate a pending spot-preemption draw.
  [[nodiscard]] std::optional<InFlightStatus> in_flight(
      InvocationId id) const;

  [[nodiscard]] const FunctionSpec& spec(FunctionId id) const;
  [[nodiscard]] std::size_t function_count() const { return fns_.size(); }

  // --- Pure pricing/timing math, shared with the analytic allocator ------

  /// Rounds a requested memory size to a deployable configuration.
  [[nodiscard]] DataSize quantize_memory(DataSize requested) const;

  /// vCPU share purchased by `memory`, in (0, max_vcpus].
  [[nodiscard]] double cpu_share(DataSize memory) const;

  /// Speed of `memory` relative to one full core, for a function with the
  /// given Amdahl parallel fraction `p`. Below one vCPU the single thread
  /// simply gets `share` of a core; above it, Amdahl's law over `share`
  /// cores applies: speedup = 1 / ((1-p) + p/share). Never falls as memory
  /// grows, and memory / speed_factor(memory) never falls either.
  [[nodiscard]] double speed_factor(DataSize memory,
                                    double parallel_fraction) const;

  /// Execution time of `work` at the given memory configuration for a
  /// function with the given Amdahl parallel fraction, never longer at
  /// more memory.
  [[nodiscard]] Duration exec_time(DataSize memory, Cycles work,
                                   double parallel_fraction) const;

  /// Execution time of `work` at a speed factor from speed_factor():
  /// work / (core_speed * speed_factor).
  [[nodiscard]] Duration exec_time_at(double speed_factor, Cycles work) const {
    return work / (cfg_.core_speed * speed_factor);
  }

  /// Fully parallel convenience overload.
  [[nodiscard]] Duration exec_time(DataSize memory, Cycles work) const {
    return exec_time(memory, work, 1.0);
  }

  /// Cold-start duration for an image of the given size.
  [[nodiscard]] Duration cold_start_time(DataSize image) const;

  /// Cost of one execution of `billed` duration at `memory`, at simulated
  /// time `when` (applies the time-of-day multiplier and the tier's price
  /// factor), including the per-request fee.
  [[nodiscard]] Money invocation_cost(DataSize memory, Duration billed,
                                      TimePoint when,
                                      Tier tier = Tier::OnDemand) const;

  /// Execution-price multiplier in effect at `when`.
  [[nodiscard]] double price_multiplier(TimePoint when) const;

  // --- Accounting ---------------------------------------------------------

  /// Stats with provisioned-capacity cost accrued up to sim.now().
  [[nodiscard]] PlatformStats stats() const;

  /// Total money spent (execution + requests + provisioned capacity).
  [[nodiscard]] Money total_cost() const;

  /// Currently executing invocations (for tests).
  [[nodiscard]] std::size_t concurrency_in_use() const { return busy_; }
  /// Warm (idle, reusable) instances of a function, incl. provisioned.
  [[nodiscard]] std::size_t warm_count(FunctionId id) const;

  [[nodiscard]] const PlatformConfig& config() const { return cfg_; }

 private:
  /// An idle on-demand instance, warm until its keep-alive expires.
  struct IdleInstance {
    std::uint64_t instance_id;
    sim::EventId expiry_event;
  };

  struct Function {
    FunctionSpec spec;
    std::vector<IdleInstance> idle;  ///< LIFO on-demand warm pool
    /// Idle provisioned instances: identical and never expiring, so a
    /// count stands for them.
    std::size_t provisioned_idle = 0;
    std::size_t provisioned_target = 0;
    std::size_t provisioned_total = 0;  ///< provisioned instances in existence
    std::uint32_t version = 0;  ///< bumped by redeploy()
  };

  /// One invocation from invoke()/resume() until its result is delivered:
  /// queued behind the account concurrency limit, then executing. The
  /// record is released just before `done` fires.
  struct Invocation {
    Callback done;
    FunctionId fn = 0;
    Cycles work;
    TimePoint submitted;
    Duration exec_credit;  ///< prior exec credited by resume()
    Tier tier = Tier::OnDemand;
    /// Next invocation in the throttle FIFO while queued.
    InvocationId next_queued = kNoSlabId;
    // Set at admission (begin()):
    bool executing = false;
    bool cold = false;
    bool provisioned = false;
    bool preempted_by_clock = false;  ///< spot draw lost the race
    std::uint32_t version = 0;  ///< deploy version of its instance
    TimePoint admission;    ///< when it left the throttle queue
    Duration init;          ///< cold-start time ahead of exec
    Duration planned_exec;  ///< exec after credit, before any spot draw
    Duration exec;          ///< exec this run will actually perform
    sim::EventId completion = sim::kNoEvent;
  };

  InvocationId enqueue(FunctionId id, Cycles work, Duration exec_credit,
                       Callback done, Tier tier);
  void pump();  ///< admits queued invocations while concurrency allows
  /// Admits queued invocation `id`: takes an instance, schedules the end.
  void begin(InvocationId id);
  /// Delivers the result of the executing invocation `id`; `forced` marks
  /// a checkpoint_preempt() (exec truncated to what actually ran).
  void complete(InvocationId id, bool forced);
  /// Unlinks queued invocation `id` from the throttle FIFO.
  void unqueue(InvocationId id);
  /// Releases `id`'s record, then hands `r` to its callback and admits
  /// what the freed capacity allows.
  void deliver(InvocationId id, const InvocationResult& r);
  /// Returns a finished instance of the current version to the warm pool.
  void finish_instance(FunctionId fn, bool provisioned);
  void accrue_provisioned() const;
  [[nodiscard]] double provisioned_gb() const;

  /// Cached instrument pointers; null when no registry is attached, so the
  /// hot path pays one pointer test per update.
  struct Instruments {
    stats::Accumulator* queue_wait_ms = nullptr;
    stats::Accumulator* exec_ms = nullptr;
    stats::Accumulator* init_ms = nullptr;
  };

  sim::Simulator& sim_;
  PlatformConfig cfg_;
  Rng rng_;
  obs::TraceSink* trace_ = nullptr;
  Instruments m_;
  std::vector<Function> fns_;
  /// Every invocation not yet delivered, queued or executing.
  Slab<Invocation> invocations_;
  /// Throttle FIFO, linked through Invocation::next_queued.
  InvocationId queue_head_ = kNoSlabId;
  InvocationId queue_tail_ = kNoSlabId;
  std::size_t queued_ = 0;
  std::size_t busy_ = 0;
  std::uint64_t next_instance_ = 1;

  mutable PlatformStats stats_;
  mutable TimePoint provisioned_accrued_until_;
};

}  // namespace ntco::serverless
