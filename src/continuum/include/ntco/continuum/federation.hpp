#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "ntco/common/units.hpp"
#include "ntco/continuum/site.hpp"
#include "ntco/net/transport.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/sim/simulator.hpp"
#include "ntco/stats/accumulator.hpp"

/// \file federation.hpp
/// `continuum::Federation`: the multi-region/multi-tier site registry,
/// deterministic placement policy and migration decisions of the
/// edge–cloud continuum.
///
/// A job moves through phases:
///
///   submit -> [place] -> Transfer(input, UE->site) -> Running
///          -> (complete)  Download(output) -> done
///          -> (preempted) decision:
///                stay     resubmit here, prior exec credited
///                migrate  Transfer(state, site->site) -> Running elsewhere
///                restart  Transfer(input, UE->site) -> Running, credit lost
///          -> (no site alive) Parked until restore_site
///
/// Placement policy (see DESIGN.md S18): tiers are scanned nearest-first
/// (Edge < Regional < Cloud); the first tier holding an alive,
/// under-threshold, deadline-feasible site wins, cheapest such site first.
/// A price-aware override then routes to a strictly cheaper feasible site
/// when the deadline leaves `kPriceSlackFactor` of headroom. Everything is
/// computed from nominal estimates (`Site::est_*`, `Transport::spec()`), so
/// comparing candidates consumes no randomness and placement is a pure
/// function of registry state — byte-identical across thread counts.
///
/// Checkpoint cost model (DESIGN.md S18): a checkpointed job is a state
/// image of `JobSpec::state` bytes plus a duration-denominated progress
/// credit. For each candidate the decision compares estimated
/// time-to-completion:
///
///   stay      kResumeOverhead + wait(src) + remaining(src)
///   migrate   transfer(state, src->dst) + kResumeOverhead
///               + wait(dst) + remaining(dst)
///   restart   transfer(input, UE->dst) + wait(dst) + full_exec(dst)
///
/// and takes the minimum, breaking ties deterministically toward staying,
/// then live migration, then the lowest destination id. Estimates use
/// nominal transport specs only; the chosen transfer is then committed on
/// the real (possibly contended) Transport. When `live_migration` is off,
/// stay/migrate degenerate to restart — the ablation arm that bench F14
/// measures live migration against.
///
/// Two triggers run it: a spot preemption (a preempted `SiteResult`) and a
/// site failure (`fail_site` checkpoints every job running there).
///
/// Jobs live in a `std::map` keyed by a monotonic `JobId`: every
/// `continuum.*` trace row prints that id, and `fail_site` visits a
/// site's jobs in id order.

namespace ntco::continuum {

/// Federation-scoped job handle.
using JobId = std::uint64_t;

/// One delay-tolerant job offered to the continuum.
struct JobSpec {
  Cycles work;
  DataSize input;     ///< UE -> site payload before execution
  DataSize output;    ///< site -> UE payload after execution
  DataSize state;     ///< checkpoint image moved by a live migration
  /// Completion budget relative to submission; zero = no deadline.
  Duration deadline;
};

/// Final accounting of one job, delivered to its callback.
struct JobOutcome {
  JobId id = 0;
  SiteId first_site = 0;
  SiteId final_site = 0;
  TimePoint submitted;
  TimePoint finished;
  Duration completion;          ///< finished - submitted
  Duration exec_total;          ///< exec actually consumed across all runs
  Money cost;                   ///< compute cost across all (partial) runs
  std::uint32_t migrations = 0; ///< moves between sites (incl. restarts)
  bool deadline_met = true;
};

/// Price-aware placement override: a cheaper site is taken only when
/// `est_completion * kPriceSlackFactor <= deadline` (deadline-less jobs
/// always qualify).
inline constexpr double kPriceSlackFactor = 1.5;
static_assert(kPriceSlackFactor >= 1.0,
              "a cheaper site must never be taken past the deadline");
/// Checkpoint deserialisation pause charged before any resumed run.
inline constexpr Duration kResumeOverhead = Duration::millis(50);
static_assert(!kResumeOverhead.is_negative());

/// Federation-wide policy knobs.
struct FederationConfig {
  /// When false, preempted jobs always restart from zero elsewhere (the
  /// ablation arm of bench F14): no state transfer, no exec credit.
  bool live_migration = true;
};

/// Aggregate federation accounting. Every offered job is `submitted` or
/// `rejected`, and `submitted` = `completed` + `Federation::live_jobs()`.
struct FederationStats {
  std::uint64_t submitted = 0;
  /// Malformed jobs (negative deadline) refused at submit(): never placed,
  /// counted in no other field.
  std::uint64_t rejected = 0;
  std::uint64_t completed = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t migrations = 0;   ///< live state moves between sites
  std::uint64_t restarts = 0;     ///< placements that dropped earned credit
  std::uint64_t stay_puts = 0;    ///< post-preemption resumes on the same site
  std::uint64_t spillovers = 0;   ///< placements past an alive edge tier
  std::uint64_t reroutes = 0;     ///< transfers re-aimed mid-flight
  std::uint64_t parked = 0;       ///< jobs that had to wait for a restore
  Duration total_completion;
  Duration total_exec;
  Money total_cost;
};

/// Site registry + placement + job lifecycle. Non-copyable; lives alongside
/// one sim::Simulator. Sites must all be registered before the first
/// submit.
class Federation {
 public:
  using Callback = std::function<void(const JobOutcome&)>;

  Federation(sim::Simulator& sim, FederationConfig cfg = {})
      : sim_(sim), cfg_(cfg) {}

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Registers a site; its `Site::id()` must equal the returned slot
  /// (`site_count()` at call time), keeping ids usable as indices.
  SiteId add_site(Site site);

  /// Declares the inter-site transport used by live migrations from
  /// `from` to `to` (direction matters; uplink carries the state). Pairs
  /// without a route fall back to restart-from-zero.
  void set_route(SiteId from, SiteId to, net::Transport& transport);

  /// Attaches observability: "continuum.*" traces and summaries.
  void attach_observer(obs::TraceSink* trace, obs::MetricsRegistry* metrics);

  /// Adds the "continuum.*" counters, read from stats(), to `metrics`;
  /// "continuum.rejected" only when a job was rejected.
  void publish(obs::MetricsRegistry& metrics) const;

  /// Places and starts a job. `done` fires once, after the output download
  /// lands back at the UE. A job with a negative deadline is rejected
  /// here instead: it takes no id, `done` never fires, and submit returns
  /// 0, which no job id ever is. It costs itself
  /// (FederationStats::rejected, "continuum.rejected",
  /// "continuum.job.rejected"), never the run.
  JobId submit(const JobSpec& spec, Callback done);

  /// Marks a site failed. With `graceful` (default) in-flight jobs are
  /// drained through one last checkpoint — the periodic-checkpoint
  /// assumption of the process-migration literature — and re-placed by the
  /// cost model above; abrupt failure loses their progress instead. New
  /// placements skip the site either way.
  void fail_site(SiteId id, bool graceful = true);

  /// Brings a failed site back and re-places any parked jobs.
  void restore_site(SiteId id);

  [[nodiscard]] bool alive(SiteId id) const { return alive_[id]; }
  [[nodiscard]] Site& site(SiteId id) { return sites_[id]; }
  [[nodiscard]] const Site& site(SiteId id) const { return sites_[id]; }
  [[nodiscard]] std::size_t site_count() const { return sites_.size(); }

  /// Jobs submitted but not yet delivered.
  [[nodiscard]] std::size_t live_jobs() const { return jobs_.size(); }

  [[nodiscard]] const FederationStats& stats() const { return stats_; }
  [[nodiscard]] const FederationConfig& config() const { return cfg_; }

 private:
  enum class JobPhase : std::uint8_t {
    Transfer,  ///< input/state in flight toward `dest`
    Running,   ///< on `site` with a live `ticket`
    Download,  ///< output in flight back to the UE
    Parked,    ///< no alive site; waiting for restore_site
  };

  struct JobState {
    JobSpec spec;
    Callback done;
    TimePoint submitted;
    JobPhase phase = JobPhase::Transfer;
    SiteId first_site = 0;
    SiteId site = 0;    ///< current/previous site
    SiteId dest = 0;    ///< transfer destination
    Ticket ticket = 0;  ///< backend handle while Running
    Duration exec_done;   ///< credited progress (duration-denominated)
    Duration exec_total;  ///< exec actually consumed (stats)
    Money cost;
    std::uint32_t migrations = 0;
    bool moved = false;           ///< a move is in flight (trace pairing)
    bool first_assigned = false;  ///< first_site recorded yet
  };

  /// Nominal one-way transfer estimate from a direction spec.
  [[nodiscard]] static Duration est_oneway(const net::DirectionSpec& d,
                                           DataSize size);

  /// Deterministic placement; sets `spilled` when an alive edge site was
  /// passed over. Returns site_count() when no site is alive.
  [[nodiscard]] SiteId place(const JobSpec& spec, bool& spilled) const;

  [[nodiscard]] net::Transport* route(SiteId from, SiteId to) const;

  /// Estimated completion of `exec_done`-credited `spec` work on site `s`
  /// if resumed there now (wait + remaining exec + resume overhead).
  [[nodiscard]] static Duration est_resume(const Site& s, const JobSpec& spec,
                                           Duration exec_done);

  /// Counts and traces a job refused at submit().
  void reject(const JobSpec& spec);

  /// Commits `size` bytes over `t` toward `dest`; `arrive` runs on landing
  /// (plus resume overhead when the job carries credit).
  void start_transfer(JobId id, SiteId dest, DataSize size,
                      net::Transport& t);
  void arrive(JobId id);
  void run_on(JobId id, SiteId s);
  void on_result(JobId id, const SiteResult& r);
  /// Re-places a job that is off-site (just preempted): picks
  /// stay/migrate/restart by the cost model above and commits it. Parks
  /// the job when no site is alive.
  void decide(JobId id);
  /// Commits the move decided for an off-site job with `dest` set: live
  /// state transfer when credit and a route exist, restart otherwise.
  void dispatch_move(JobId id);
  /// Checkpoints every job running on `failed` (progress kept when the
  /// failure is graceful and live migration is on); each checkpoint's
  /// result re-places its job through decide().
  void evacuate(SiteId failed, bool graceful);
  /// Places an off-site job whose image lives UE-side (parked jobs,
  /// rerouted transfers): cheapest-completion alive site, transfer from
  /// the UE. Returns false (and leaves the job untouched) when no site is
  /// alive.
  bool place_from_ue(JobId id);
  void park(JobId id);
  void finish(JobId id);

  sim::Simulator& sim_;
  FederationConfig cfg_;
  std::vector<Site> sites_;
  std::vector<bool> alive_;
  std::map<std::pair<SiteId, SiteId>, net::Transport*> routes_;
  std::map<JobId, JobState> jobs_;
  std::vector<JobId> parked_;
  JobId next_job_ = 1;
  bool abrupt_evac_ = false;  ///< progress is dropped while set
  obs::TraceSink* trace_ = nullptr;

  /// Cached instrument pointers (null without a registry).
  struct Instruments {
    stats::Accumulator* completion_ms = nullptr;
    stats::Accumulator* job_cost_usd = nullptr;
  };
  Instruments m_;
  FederationStats stats_;
};

}  // namespace ntco::continuum
