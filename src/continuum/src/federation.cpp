#include "ntco/continuum/federation.hpp"

#include <optional>
#include <tuple>

#include "ntco/common/contracts.hpp"

namespace ntco::continuum {

SiteId Federation::add_site(Site site) {
  NTCO_EXPECTS(jobs_.empty());  // registry is fixed before the first job
  const auto slot = static_cast<SiteId>(sites_.size());
  NTCO_EXPECTS(site.id() == slot);
  sites_.push_back(std::move(site));
  alive_.push_back(true);
  return slot;
}

void Federation::set_route(SiteId from, SiteId to, net::Transport& transport) {
  NTCO_EXPECTS(from < sites_.size() && to < sites_.size() && from != to);
  routes_[{from, to}] = &transport;
}

void Federation::attach_observer(obs::TraceSink* trace,
                                 obs::MetricsRegistry* metrics) {
  trace_ = trace;
  m_ = Instruments{};
  if (metrics == nullptr) return;
  m_.completion_ms = &metrics->summary("continuum.completion_ms");
  m_.job_cost_usd = &metrics->summary("continuum.job_cost_usd");
}

void Federation::publish(obs::MetricsRegistry& metrics) const {
  metrics.counter("continuum.jobs").add(stats_.submitted);
  metrics.counter("continuum.completed").add(stats_.completed);
  metrics.counter("continuum.deadline_misses").add(stats_.deadline_misses);
  metrics.counter("continuum.migrations").add(stats_.migrations);
  metrics.counter("continuum.restarts").add(stats_.restarts);
  metrics.counter("continuum.stay_puts").add(stats_.stay_puts);
  metrics.counter("continuum.spillovers").add(stats_.spillovers);
  metrics.counter("continuum.reroutes").add(stats_.reroutes);
  metrics.counter("continuum.parked").add(stats_.parked);
  if (stats_.rejected > 0)
    metrics.counter("continuum.rejected").add(stats_.rejected);
}

Duration Federation::est_oneway(const net::DirectionSpec& d, DataSize size) {
  return d.latency + size / d.rate;
}

net::Transport* Federation::route(SiteId from, SiteId to) const {
  const auto it = routes_.find({from, to});
  return it == routes_.end() ? nullptr : it->second;
}

Duration Federation::est_resume(const Site& s, const JobSpec& spec,
                                Duration exec_done) {
  const Duration full = s.est_exec(spec.work);
  const Duration remaining =
      full > exec_done ? full - exec_done : Duration::zero();
  const Duration overhead =
      exec_done.is_zero() ? Duration::zero() : kResumeOverhead;
  return overhead + s.est_wait(spec.work) + remaining;
}

SiteId Federation::place(const JobSpec& spec, bool& spilled) const {
  spilled = false;
  const TimePoint now = sim_.now();
  struct Cand {
    SiteId id;
    SiteTier tier;
    double util;
    Duration est;
    Money cost;
  };
  std::vector<Cand> cands;
  bool edge_alive = false;
  for (SiteId s = 0; s < sites_.size(); ++s) {
    if (!alive_[s]) continue;
    const Site& site = sites_[s];
    if (site.tier() == SiteTier::Edge) edge_alive = true;
    const auto& path = site.ue_route().spec();
    const Duration est = est_oneway(path.up, spec.input) +
                         site.est_wait(spec.work) + site.est_exec(spec.work) +
                         est_oneway(path.down, spec.output);
    cands.push_back(
        {s, site.tier(), site.utilization(), est, site.est_cost(spec.work, now)});
  }
  if (cands.empty()) return static_cast<SiteId>(sites_.size());

  const auto feasible = [&spec](const Cand& c) {
    return spec.deadline.is_zero() || c.est <= spec.deadline;
  };

  // Edge-first: the nearest tier with an alive, under-threshold, feasible
  // site wins; within it, cheapest first (then least loaded, then id).
  const Cand* pick = nullptr;
  for (int tier = 0; tier <= 2 && pick == nullptr; ++tier) {
    for (const Cand& c : cands) {
      if (static_cast<int>(c.tier) != tier) continue;
      if (c.util >= kSpillThreshold) continue;
      if (!feasible(c)) continue;
      if (pick == nullptr || std::tie(c.cost, c.util, c.id) <
                                 std::tie(pick->cost, pick->util, pick->id))
        pick = &c;
    }
  }
  // Everything saturated or infeasible: soonest completion wins.
  if (pick == nullptr) {
    for (const Cand& c : cands)
      if (pick == nullptr ||
          std::tie(c.est, c.id) < std::tie(pick->est, pick->id))
        pick = &c;
  }
  // Price-aware override: a strictly cheaper under-threshold site is taken
  // when the deadline leaves kPriceSlackFactor of headroom over its
  // estimate. Saturated sites never win on price — their est_cost ignores
  // the backlog a new job would join.
  const Cand* cheap = nullptr;
  for (const Cand& c : cands) {
    if (c.util >= kSpillThreshold) continue;
    const bool slack_ok = spec.deadline.is_zero() ||
                          c.est * kPriceSlackFactor <= spec.deadline;
    if (!slack_ok) continue;
    if (cheap == nullptr ||
        std::tie(c.cost, c.id) < std::tie(cheap->cost, cheap->id))
      cheap = &c;
  }
  if (cheap != nullptr && cheap->cost < pick->cost) pick = cheap;

  spilled = edge_alive && pick->tier != SiteTier::Edge;
  return pick->id;
}

JobId Federation::submit(const JobSpec& spec, Callback done) {
  NTCO_EXPECTS(done != nullptr);
  NTCO_EXPECTS(!sites_.empty());
  if (spec.deadline.is_negative()) {
    reject(spec);
    return 0;
  }
  const JobId id = next_job_++;
  JobState job;
  job.spec = spec;
  job.done = std::move(done);
  job.submitted = sim_.now();
  jobs_.emplace(id, std::move(job));
  ++stats_.submitted;
  if (trace_)
    obs::emit(trace_, sim_.now(), "continuum.job.submit",
              {{"job", id},
               {"work", spec.work.value()},
               {"input", spec.input},
               {"deadline", spec.deadline}});

  bool spilled = false;
  const SiteId s = place(spec, spilled);
  if (s == sites_.size()) {
    park(id);
    return id;
  }
  if (spilled) ++stats_.spillovers;
  if (trace_)
    obs::emit(trace_, sim_.now(), "continuum.place",
              {{"job", id}, {"site", s}, {"spilled", spilled}});
  start_transfer(id, s, spec.input, sites_[s].ue_route());
  return id;
}

void Federation::reject(const JobSpec& spec) {
  ++stats_.rejected;
  if (trace_)
    obs::emit(trace_, sim_.now(), "continuum.job.rejected",
              {{"deadline", spec.deadline}});
}

void Federation::start_transfer(JobId id, SiteId dest, DataSize size,
                                net::Transport& t) {
  JobState& job = jobs_.at(id);
  job.phase = JobPhase::Transfer;
  job.dest = dest;
  if (!job.first_assigned) {
    job.first_assigned = true;
    job.first_site = dest;
  }
  Duration dur = t.uplink_time(size);  // commits the transfer
  if (!job.exec_done.is_zero()) dur += kResumeOverhead;
  sim_.schedule_after(dur, [this, id] { arrive(id); });
}

void Federation::arrive(JobId id) {
  JobState& job = jobs_.at(id);
  if (alive_[job.dest]) {
    run_on(id, job.dest);
    return;
  }
  // Destination died while the transfer was in flight: re-place from the
  // UE-side image (the bytes never landed anywhere usable).
  const SiteId dead = job.dest;
  ++stats_.reroutes;
  ++job.migrations;
  if (!place_from_ue(id)) {
    park(id);
    return;
  }
  if (trace_)
    obs::emit(trace_, sim_.now(), "continuum.migrate.reroute",
              {{"job", id}, {"from", dead}, {"to", jobs_.at(id).dest}});
}

bool Federation::place_from_ue(JobId id) {
  JobState& job = jobs_.at(id);
  const bool credited = cfg_.live_migration && !job.exec_done.is_zero();
  const DataSize size = credited ? job.spec.state : job.spec.input;
  const Site* best = nullptr;
  Duration best_est;
  for (SiteId s = 0; s < sites_.size(); ++s) {
    if (!alive_[s]) continue;
    const Site& site = sites_[s];
    const Duration rem = credited
                             ? (site.est_exec(job.spec.work) > job.exec_done
                                    ? site.est_exec(job.spec.work) - job.exec_done
                                    : Duration::zero())
                             : site.est_exec(job.spec.work);
    const Duration est = est_oneway(site.ue_route().spec().up, size) +
                         site.est_wait(job.spec.work) + rem;
    if (best == nullptr || est < best_est) {
      best = &site;
      best_est = est;
    }
  }
  if (best == nullptr) return false;
  if (!credited) job.exec_done = Duration::zero();
  job.moved = true;
  start_transfer(id, best->id(), size, best->ue_route());
  return true;
}

void Federation::run_on(JobId id, SiteId s) {
  JobState& job = jobs_.at(id);
  job.site = s;
  job.phase = JobPhase::Running;
  if (job.moved) {
    job.moved = false;
    if (trace_)
      obs::emit(trace_, sim_.now(), "continuum.migrate.end",
                {{"job", id}, {"to", s}, {"credit", job.exec_done}});
  }
  job.ticket = sites_[s].submit(
      job.spec.work, job.exec_done,
      [this, id](const SiteResult& r) { on_result(id, r); });
}

void Federation::on_result(JobId id, const SiteResult& r) {
  JobState& job = jobs_.at(id);
  job.ticket = 0;
  job.exec_total += r.exec_time;
  job.cost += r.cost;
  job.exec_done = r.exec_credit + r.exec_time;

  if (!r.preempted) {
    job.phase = JobPhase::Download;
    const Duration down =
        sites_[job.site].ue_route().downlink_time(job.spec.output);
    sim_.schedule_after(down, [this, id] { finish(id); });
    return;
  }
  if (!cfg_.live_migration || abrupt_evac_) job.exec_done = Duration::zero();
  decide(id);
}

void Federation::decide(JobId id) {
  JobState& job = jobs_.at(id);
  NTCO_EXPECTS(job.ticket == 0);
  const JobSpec& spec = job.spec;
  const SiteId src = job.site;
  const bool credited = cfg_.live_migration && !job.exec_done.is_zero();

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

  if (alive_[src])
    consider(est_resume(sites_[src], spec, job.exec_done), 0, src);
  for (SiteId d = 0; d < sites_.size(); ++d) {
    if (!alive_[d] || d == src) continue;
    const Site& dst = sites_[d];
    net::Transport* r = credited ? route(src, d) : nullptr;
    if (r != nullptr) {
      consider(est_oneway(r->spec().up, spec.state) +
                   est_resume(dst, spec, job.exec_done),
               1, d);
    } else {
      consider(est_oneway(dst.ue_route().spec().up, spec.input) +
                   est_resume(dst, spec, Duration::zero()),
               2, d);
    }
  }
  if (!best) {
    park(id);
    return;
  }

  if (best->kind == 0) {
    ++stats_.stay_puts;
    if (trace_)
      obs::emit(trace_, sim_.now(), "continuum.migrate.stay",
                {{"job", id}, {"site", src}, {"credit", job.exec_done}});
    // Resume in place after the checkpoint-restore pause; no transfer.
    job.phase = JobPhase::Transfer;
    job.dest = src;
    const Duration overhead =
        job.exec_done.is_zero() ? Duration::zero() : kResumeOverhead;
    sim_.schedule_after(overhead, [this, id] { arrive(id); });
    return;
  }
  job.dest = best->dest;
  dispatch_move(id);
}

void Federation::dispatch_move(JobId id) {
  JobState& job = jobs_.at(id);
  const SiteId from = job.site;
  const SiteId to = job.dest;
  ++job.migrations;
  net::Transport* r = (cfg_.live_migration && !job.exec_done.is_zero())
                          ? route(from, to)
                          : nullptr;
  if (r != nullptr) {
    ++stats_.migrations;
    if (trace_)
      obs::emit(trace_, sim_.now(), "continuum.migrate.begin",
                {{"job", id},
                 {"from", from},
                 {"to", to},
                 {"state", job.spec.state},
                 {"credit", job.exec_done}});
    job.moved = true;
    start_transfer(id, to, job.spec.state, *r);
    return;
  }
  // No usable route (or credit dropped): restart from zero, input
  // re-uploaded from the UE over the destination's own access route.
  job.exec_done = Duration::zero();
  ++stats_.restarts;
  if (trace_)
    obs::emit(trace_, sim_.now(), "continuum.migrate.restart",
              {{"job", id}, {"from", from}, {"to", to}});
  job.moved = true;
  start_transfer(id, to, job.spec.input, sites_[to].ue_route());
}

void Federation::park(JobId id) {
  JobState& job = jobs_.at(id);
  job.phase = JobPhase::Parked;
  parked_.push_back(id);
  ++stats_.parked;
  if (trace_) obs::emit(trace_, sim_.now(), "continuum.job.parked", {{"job", id}});
}

void Federation::fail_site(SiteId id, bool graceful) {
  NTCO_EXPECTS(id < sites_.size());
  if (!alive_[id]) return;
  alive_[id] = false;
  if (trace_)
    obs::emit(trace_, sim_.now(), "continuum.site.fail",
              {{"site", id}, {"graceful", graceful}});
  evacuate(id, graceful);
}

void Federation::evacuate(SiteId failed, bool graceful) {
  // Snapshot first: checkpoints deliver results synchronously and those
  // callbacks re-place jobs, mutating the table we'd be iterating.
  std::vector<JobId> on_site;
  for (const auto& [id, job] : jobs_) {
    if (job.phase == JobPhase::Running && job.site == failed)
      on_site.push_back(id);
  }
  abrupt_evac_ = !graceful;
  for (const JobId id : on_site) {
    const auto it = jobs_.find(id);
    if (it == jobs_.end() || it->second.phase != JobPhase::Running) continue;
    sites_[failed].checkpoint(it->second.ticket);
  }
  abrupt_evac_ = false;
}

void Federation::restore_site(SiteId id) {
  NTCO_EXPECTS(id < sites_.size());
  if (alive_[id]) return;
  alive_[id] = true;
  if (trace_)
    obs::emit(trace_, sim_.now(), "continuum.site.restore",
              {{"site", id}, {"parked", static_cast<std::uint64_t>(
                                  parked_.size())}});
  std::vector<JobId> waiting;
  waiting.swap(parked_);
  for (const JobId j : waiting) {
    if (!place_from_ue(j)) park(j);
  }
}

void Federation::finish(JobId id) {
  const auto it = jobs_.find(id);
  NTCO_EXPECTS(it != jobs_.end());
  JobState job = std::move(it->second);
  jobs_.erase(it);

  JobOutcome out;
  out.id = id;
  out.first_site = job.first_site;
  out.final_site = job.site;
  out.submitted = job.submitted;
  out.finished = sim_.now();
  out.completion = out.finished - out.submitted;
  out.exec_total = job.exec_total;
  out.cost = job.cost;
  out.migrations = job.migrations;
  out.deadline_met =
      job.spec.deadline.is_zero() || out.completion <= job.spec.deadline;

  ++stats_.completed;
  stats_.total_completion += out.completion;
  stats_.total_exec += out.exec_total;
  stats_.total_cost += out.cost;
  if (m_.completion_ms) m_.completion_ms->add(out.completion.to_millis());
  if (m_.job_cost_usd) m_.job_cost_usd->add(out.cost.to_usd());
  if (!out.deadline_met) ++stats_.deadline_misses;
  if (trace_)
    obs::emit(trace_, sim_.now(), "continuum.job.done",
              {{"job", id},
               {"site", out.final_site},
               {"migrations", out.migrations},
               {"cost", out.cost},
               {"deadline_met", out.deadline_met}});
  job.done(out);
}

}  // namespace ntco::continuum
