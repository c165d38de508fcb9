#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

/// \file workload_ids.hpp
/// Dense integer ids for workload names.
///
/// A workload's name is its identity in the broker: two task-graph objects
/// with one name share plan-cache rows, stage-2 solves and batch lanes. A
/// warm serve must not pay for that with string copies and compares at
/// every map node, so the broker interns each name once, in first-seen
/// order, and the cache key, the decision context, the stage-2 key and the
/// batch lane key carry the id. Only trace records turn an id back into
/// its name. No id order is observable: the maps keyed by ids are searched,
/// and the one scan over them (PlanCache's LRU eviction) picks a unique
/// tick.

namespace ntco::broker {

/// An interned workload name.
using WorkloadId = std::uint32_t;

/// Name → id table, ids assigned 0, 1, 2, ... in first-seen order.
class WorkloadIds {
 public:
  /// The id of `name`, assigned on first sight.
  WorkloadId intern(std::string_view name) {
    if (const auto it = ids_.find(name); it != ids_.end()) return it->second;
    const auto id = static_cast<WorkloadId>(names_.size());
    names_.push_back(&ids_.emplace(name, id).first->first);
    return id;
  }

  /// The name `id` was assigned to. Pre: `id` came from intern().
  [[nodiscard]] std::string_view name(WorkloadId id) const {
    return *names_.at(id);
  }

 private:
  std::map<std::string, WorkloadId, std::less<>> ids_;
  /// names_[id] is id's key in ids_ (map nodes never move).
  std::vector<const std::string*> names_;
};

}  // namespace ntco::broker
