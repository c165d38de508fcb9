#include "ntco/broker/batch_dispatcher.hpp"

#include <algorithm>
#include <utility>

namespace ntco::broker {

void BatchDispatcher::enqueue(WorkloadId group, TimePoint flush_at,
                              JobId job) {
  const TimePoint at = std::max(flush_at, sim_.now());
  auto [it, inserted] =
      open_.try_emplace(Key{group, at.since_origin().count_micros()});
  Pending& batch = it->second;
  if (inserted) {
    batch.jobs.reserve(kMaxBatch);
    batch.flush_event = schedule_flush(open_, it, at);
  }
  batch.jobs.push_back(job);
  if (batch.jobs.size() >= kMaxBatch) {
    // Seal: the batch stops growing but still flushes at its aligned
    // instant — dispatching now would leave the price window the instant
    // was chosen for. Later arrivals re-open the key with a fresh event.
    // The map node itself moves to the sealed batches, under a seal
    // number of its own.
    sim_.cancel(batch.flush_event);
    auto node = open_.extract(it);
    node.key().seal = ++seals_;
    schedule_flush(sealed_, sealed_.insert(std::move(node)).position, at);
  }
}

sim::EventId BatchDispatcher::schedule_flush(Batches& batches,
                                             Batches::iterator it,
                                             TimePoint at) {
  return sim_.schedule_at(at, [this, &batches, it] {
    const auto node = batches.extract(it);
    release(node.key().group, node.mapped().jobs, node.key().seal != 0);
  });
}

void BatchDispatcher::release(WorkloadId group, const std::vector<JobId>& jobs,
                              bool sealed) {
  ++stats_.batches;
  stats_.jobs_dispatched += jobs.size();
  if (sealed) ++stats_.sealed;
  if (trace_)
    obs::emit(trace_, sim_.now(), "broker.batch_flush",
              {{"group", names_->name(group)},
               {"jobs", jobs.size()},
               {"sealed", sealed}});

  // Round-robin the batch over kBatchLanes sequential chains: lane l runs
  // jobs l, l+lanes, l+2*lanes, ... back to back, so every job after the
  // first in its lane finds the warm instances its predecessor just
  // released.
  const std::size_t lanes = std::min(kBatchLanes, jobs.size());
  for (std::size_t i = lanes; i < jobs.size(); ++i)
    runner_.follow(jobs[i - lanes], jobs[i]);
  for (std::size_t l = 0; l < lanes; ++l) runner_.start(jobs[l]);
}

}  // namespace ntco::broker
