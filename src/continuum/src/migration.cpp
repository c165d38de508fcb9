#include "ntco/continuum/migration.hpp"

#include <optional>
#include <tuple>
#include <vector>

#include "ntco/common/contracts.hpp"
#include "ntco/net/transport.hpp"
#include "ntco/obs/trace.hpp"

namespace ntco::continuum {

namespace {

Duration remaining_exec(const Site& s, const JobSpec& spec,
                        Duration exec_done) {
  const Duration full = s.est_exec(spec.work);
  return full > exec_done ? full - exec_done : Duration::zero();
}

}  // namespace

Duration MigrationEngine::est_resume(const Site& s, const JobSpec& spec,
                                     Duration exec_done) const {
  const Duration overhead =
      exec_done.is_zero() ? Duration::zero() : kResumeOverhead;
  return overhead + s.est_wait(spec.work) + remaining_exec(s, spec, exec_done);
}

void MigrationEngine::decide(JobId id) {
  Federation::JobState& job = fed_.jobs_.at(id);
  NTCO_EXPECTS(job.ticket == 0);
  const JobSpec& spec = job.spec;
  const SiteId src = job.site;
  const bool credited = fed_.cfg_.live_migration && !job.exec_done.is_zero();

  // Options ranked by (estimated completion, kind, destination id) with
  // kind 0 = stay, 1 = live migrate, 2 = restart: deterministic and biased
  // toward the least disruptive action on ties.
  struct Choice {
    Duration est;
    int kind;
    SiteId dest;
  };
  std::optional<Choice> best;
  const auto consider = [&best](Duration est, int kind, SiteId dest) {
    if (!best || std::tie(est, kind, dest) <
                     std::tie(best->est, best->kind, best->dest))
      best = Choice{est, kind, dest};
  };

  if (fed_.alive_[src])
    consider(est_resume(fed_.sites_[src], spec, job.exec_done), 0, src);
  for (SiteId d = 0; d < fed_.sites_.size(); ++d) {
    if (!fed_.alive_[d] || d == src) continue;
    const Site& dst = fed_.sites_[d];
    net::Transport* r = credited ? fed_.route(src, d) : nullptr;
    if (r != nullptr) {
      consider(Federation::est_oneway(r->spec().up, spec.state) +
                   est_resume(dst, spec, job.exec_done),
               1, d);
    } else {
      consider(Federation::est_oneway(dst.ue_route().spec().up, spec.input) +
                   est_resume(dst, spec, Duration::zero()),
               2, d);
    }
  }
  if (!best) {
    fed_.park(id);
    return;
  }

  if (best->kind == 0) {
    ++fed_.stats_.stay_puts;
    if (fed_.m_.stay_puts) fed_.m_.stay_puts->add();
    if (fed_.trace_)
      obs::emit(fed_.trace_, fed_.sim_.now(), "continuum.migrate.stay",
                {{"job", id}, {"site", src}, {"credit", job.exec_done}});
    // Resume in place after the checkpoint-restore pause; no transfer.
    job.phase = Federation::JobPhase::Transfer;
    job.dest = src;
    const Duration overhead =
        job.exec_done.is_zero() ? Duration::zero() : kResumeOverhead;
    fed_.sim_.schedule_after(overhead, [this, id] { fed_.arrive(id); });
    return;
  }
  job.dest = best->dest;
  fed_.dispatch_move(id);
}

void MigrationEngine::evacuate(SiteId failed, bool graceful) {
  // Snapshot first: checkpoints deliver results synchronously and those
  // callbacks re-place jobs, mutating the table we'd be iterating.
  std::vector<JobId> on_site;
  for (const auto& [id, job] : fed_.jobs_) {
    if (job.phase == Federation::JobPhase::Running && job.site == failed)
      on_site.push_back(id);
  }
  fed_.abrupt_evac_ = !graceful;
  for (const JobId id : on_site) {
    const auto it = fed_.jobs_.find(id);
    if (it == fed_.jobs_.end() ||
        it->second.phase != Federation::JobPhase::Running)
      continue;
    fed_.sites_[failed].checkpoint(it->second.ticket);
  }
  fed_.abrupt_evac_ = false;
}

void MigrationEngine::rebalance() {
  std::vector<JobId> queued;
  for (const auto& [id, job] : fed_.jobs_) {
    if (job.phase != Federation::JobPhase::Running) continue;
    const Site& s = fed_.sites_[job.site];
    if (s.utilization() < kSpillThreshold) continue;
    const auto pr = s.in_flight(job.ticket);
    if (pr && !pr->executing) queued.push_back(id);
  }
  for (const JobId id : queued) {
    const auto it = fed_.jobs_.find(id);
    if (it == fed_.jobs_.end() ||
        it->second.phase != Federation::JobPhase::Running)
      continue;
    Federation::JobState& job = it->second;
    const Site& src = fed_.sites_[job.site];
    const Duration stay = src.est_wait(job.spec.work) +
                          remaining_exec(src, job.spec, job.exec_done);
    const Site* best = nullptr;
    Duration best_est;
    for (SiteId d = 0; d < fed_.sites_.size(); ++d) {
      if (!fed_.alive_[d] || d == job.site) continue;
      const Site& dst = fed_.sites_[d];
      // Queued jobs carry no useful state yet: moving one is an input
      // re-upload from the UE, not a live migration.
      const Duration est =
          Federation::est_oneway(dst.ue_route().spec().up, job.spec.input) +
          est_resume(dst, job.spec, Duration::zero());
      if (best == nullptr || est < best_est) {
        best = &dst;
        best_est = est;
      }
    }
    if (best != nullptr && best_est < stay) drain_to(id, best->id());
  }
}

void MigrationEngine::drain_to(JobId id, SiteId dest) {
  Federation::JobState& job = fed_.jobs_.at(id);
  NTCO_EXPECTS(job.phase == Federation::JobPhase::Running);
  job.dest = dest;
  job.phase = Federation::JobPhase::Draining;
  fed_.sites_[job.site].checkpoint(job.ticket);
}

void MigrationEngine::follow(
    const net::MobilitySchedule& schedule,
    std::function<SiteId(const net::ConnectivityPhase&)> prefer,
    TimePoint until) {
  NTCO_EXPECTS(prefer != nullptr);
  sched_ = &schedule;
  prefer_ = std::move(prefer);
  until_ = until;
  has_preferred_ = false;
  follow_step();
}

void MigrationEngine::follow_step() {
  const TimePoint now = fed_.sim_.now();
  if (now > until_) return;
  const auto& phase = sched_->phase_at(now);
  const SiteId pref = prefer_(phase);
  if (!has_preferred_ || pref != last_preferred_) {
    has_preferred_ = true;
    last_preferred_ = pref;
    if (fed_.trace_)
      obs::emit(fed_.trace_, now, "continuum.mobility.phase",
                {{"tech", std::string_view(phase.tech.name)},
                 {"preferred", pref}});
    if (fed_.alive_[pref] && fed_.cfg_.live_migration) {
      std::vector<JobId> running;
      for (const auto& [id, job] : fed_.jobs_) {
        if (job.phase == Federation::JobPhase::Running && job.site != pref &&
            fed_.sites_[job.site].tier() == SiteTier::Edge)
          running.push_back(id);
      }
      for (const JobId id : running) {
        const auto it = fed_.jobs_.find(id);
        if (it == fed_.jobs_.end() ||
            it->second.phase != Federation::JobPhase::Running)
          continue;
        Federation::JobState& job = it->second;
        const Site& src = fed_.sites_[job.site];
        net::Transport* r = fed_.route(job.site, pref);
        if (r == nullptr) continue;
        const auto pr = src.in_flight(job.ticket);
        if (!pr) continue;
        const Duration done = job.exec_done + pr->consumed;
        const Site& dst = fed_.sites_[pref];
        // Keep running vs. move: both legs include the output download,
        // which is where UE proximity actually pays.
        const Duration stay =
            (pr->executing ? Duration::zero() : src.est_wait(job.spec.work)) +
            pr->remaining +
            Federation::est_oneway(src.ue_route().spec().down,
                                   job.spec.output);
        const Duration move =
            Federation::est_oneway(r->spec().up, job.spec.state) +
            est_resume(dst, job.spec, done) +
            Federation::est_oneway(dst.ue_route().spec().down,
                                   job.spec.output);
        if (move + kMobilityMinGain < stay) drain_to(id, pref);
      }
    }
  }
  const Duration rem = sched_->remaining_in_phase(now);
  if (now + rem <= until_)
    fed_.sim_.schedule_after(rem, [this] { follow_step(); });
}

}  // namespace ntco::continuum
