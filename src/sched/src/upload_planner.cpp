#include "ntco/sched/upload_planner.hpp"

namespace ntco::sched {

UploadDecision UploadPlanner::outcome_at(TimePoint start, TimePoint deadline,
                                         const UploadJob& job) const {
  const auto& phase = schedule_.phase_at(start);
  UploadDecision d;
  d.start = start;
  d.duration = phase.tech.one_way_latency + job.bytes / phase.tech.uplink;
  d.data_cost = phase.data_price_per_gb *
                (static_cast<double>(job.bytes.count_bytes()) / 1e9);
  d.radio_energy = device_.radio_tx * d.duration;
  d.meets_deadline = start + d.duration <= deadline;
  d.tech = phase.tech.name;
  return d;
}

UploadDecision UploadPlanner::plan(TimePoint release,
                                   const UploadJob& job) const {
  NTCO_EXPECTS(!job.slack.is_negative());
  const TimePoint deadline = release + job.slack;
  const UploadDecision now = outcome_at(release, deadline, job);
  if (cfg_.policy == Policy::Immediate || !now.meets_deadline) return now;

  // Candidate: the next free (unmetered) phase, if it is reachable in time.
  const auto free_start = schedule_.next_matching(
      release, [](const net::ConnectivityPhase& p) {
        return p.data_price_per_gb.is_zero();
      });
  if (!free_start.has_value()) return now;
  const UploadDecision waited = outcome_at(*free_start, deadline, job);
  if (!waited.meets_deadline) return now;

  return waited.data_cost < now.data_cost ? waited : now;
}

}  // namespace ntco::sched
