#pragma once

#include <functional>

#include "ntco/continuum/federation.hpp"
#include "ntco/net/mobility.hpp"

/// \file migration.hpp
/// `continuum::MigrationEngine`: the decision core for moving in-flight
/// jobs between sites.
///
/// Checkpoint cost model (DESIGN.md S17): a checkpointed job is a state
/// image of `JobSpec::state` bytes plus a duration-denominated progress
/// credit. For each candidate the engine compares estimated
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
/// the real (possibly contended) Transport. When the federation's
/// `live_migration` is off, stay/migrate degenerate to restart — the
/// ablation arm that bench F14 measures live migration against.
///
/// Triggers: spot preemption (`SiteResult::preempted` arriving without
/// intent), site failure (`Federation::fail_site` -> `evacuate`),
/// saturation (`rebalance`), and UE mobility (`follow` over a
/// `net::MobilitySchedule`).

namespace ntco::continuum {

/// Decision core; owned by its Federation (see `Federation::migration()`).
class MigrationEngine {
 public:
  explicit MigrationEngine(Federation& fed) : fed_(fed) {}

  MigrationEngine(const MigrationEngine&) = delete;
  MigrationEngine& operator=(const MigrationEngine&) = delete;

  /// Re-places a job that is off-site (just preempted or parked): picks
  /// stay/migrate/restart by the cost model above and commits it. Parks
  /// the job when no site is alive.
  void decide(JobId id);

  /// Drains every job on `failed`: each is checkpointed (progress kept
  /// when the failure is graceful and live migration is on) and re-placed.
  /// Called by Federation::fail_site.
  void evacuate(SiteId failed, bool graceful);

  /// Moves backend-queued (not yet executing) jobs off sites whose
  /// utilisation reaches `kSpillThreshold`, when another site would
  /// finish them sooner. Running jobs are left alone — interrupting work
  /// to shuffle queues burns checkpoint transfers for nothing.
  void rebalance();

  /// Follows a UE mobility schedule until `until`: at each phase boundary
  /// `prefer` maps the connectivity phase to the UE's nearest site, and
  /// running jobs on other *edge* sites are live-migrated toward it when
  /// the estimated gain exceeds `kMobilityMinGain`. Cloud/regional
  /// placements are left where they are — distance to them is unchanged
  /// by roaming between access networks.
  void follow(const net::MobilitySchedule& schedule,
              std::function<SiteId(const net::ConnectivityPhase&)> prefer,
              TimePoint until);

 private:
  /// Estimated completion of `exec_done`-credited `spec` work on site `s`
  /// if resumed there now (wait + remaining exec + resume overhead).
  [[nodiscard]] Duration est_resume(const Site& s, const JobSpec& spec,
                                    Duration exec_done) const;

  /// Issues a checkpoint with migration intent toward `dest`; the
  /// preempted result then flows through Federation::on_result, which
  /// starts the state transfer.
  void drain_to(JobId id, SiteId dest);

  void follow_step();

  Federation& fed_;

  // follow() state (one schedule at a time).
  const net::MobilitySchedule* sched_ = nullptr;
  std::function<SiteId(const net::ConnectivityPhase&)> prefer_;
  TimePoint until_;
  SiteId last_preferred_ = 0;
  bool has_preferred_ = false;
};

}  // namespace ntco::continuum
