#include "ntco/broker/batch_dispatcher.hpp"

#include <algorithm>
#include <utility>

namespace ntco::broker {

void BatchDispatcher::enqueue(const std::string& group, TimePoint flush_at,
                              JobId job) {
  const TimePoint at = std::max(flush_at, sim_.now());
  auto [it, inserted] =
      pending_.try_emplace(Key{group, at.since_origin().count_micros()});
  Pending& batch = it->second;
  if (inserted) {
    batch.jobs.reserve(kMaxBatch);
    // Map iterators stay valid until erase, and the entry leaves the map
    // only in this event or when sealing, which cancels the event first.
    batch.flush_event = sim_.schedule_at(at, [this, it = it] {
      const auto node = pending_.extract(it);
      release(node.key().group, node.mapped().jobs, /*sealed=*/false);
    });
  }
  batch.jobs.push_back(job);
  if (batch.jobs.size() >= kMaxBatch) {
    // Seal: the batch stops growing but still flushes at its aligned
    // instant — dispatching now would leave the price window the instant
    // was chosen for. Later arrivals re-open the key with a fresh event.
    // The map node itself moves into the release handler.
    sim_.cancel(batch.flush_event);
    sim_.schedule_at(at, [this, node = pending_.extract(it)] {
      release(node.key().group, node.mapped().jobs, /*sealed=*/true);
    });
  }
}

void BatchDispatcher::release(const std::string& group,
                              const std::vector<JobId>& jobs, bool sealed) {
  ++stats_.batches;
  stats_.jobs_dispatched += jobs.size();
  if (sealed) ++stats_.sealed;
  if (trace_)
    obs::emit(trace_, sim_.now(), "broker.batch_flush",
              {{"group", std::string_view(group)},
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
