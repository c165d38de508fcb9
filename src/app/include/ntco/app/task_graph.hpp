#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ntco/common/contracts.hpp"
#include "ntco/common/units.hpp"

/// \file task_graph.hpp
/// Application model: a DAG of components connected by data flows.
///
/// This is the unit the framework partitions. A *component* is a cohesive
/// piece of code (a method group / module) with a measured computational
/// demand; a *flow* is the serialised state that must cross the boundary if
/// its endpoints land on different sides of the partition. Components can be
/// *pinned* to the device (UI, sensor access, privacy-constrained code),
/// matching the constraint set of MAUI/CloneCloud-style partitioners.

namespace ntco::app {

/// Index of a component within its TaskGraph.
using ComponentId = std::uint32_t;

/// One offloadable unit of the application.
struct Component {
  std::string name;
  Cycles work;             ///< computational demand per execution
  DataSize memory;         ///< peak working set (floors serverless memory)
  DataSize image;          ///< deployment artifact size (affects cold start)
  bool pinned_local = false;  ///< must execute on the UE
  /// Amdahl parallel fraction: share of the work that can use extra vCPUs
  /// when the serverless memory setting buys more than one.
  double parallel_fraction = 0.8;
};

/// Directed data dependency: `bytes` of state move from -> to per execution.
struct DataFlow {
  ComponentId from;
  ComponentId to;
  DataSize bytes;
};

/// Immutable-after-build DAG of components.
///
/// Build with add_component()/add_flow(); structural invariants (valid ids,
/// no self-loops) are checked on insertion and acyclicity on demand via
/// topological_order(), which planning calls once per plan (execution walks
/// the order the plan carries).
class TaskGraph {
 public:
  explicit TaskGraph(std::string name) : name_(std::move(name)) {}

  /// Adds a component and returns its id (ids are dense, insertion-ordered).
  ComponentId add_component(Component c) {
    NTCO_EXPECTS(!c.name.empty());
    components_.push_back(std::move(c));
    out_.emplace_back();
    in_.emplace_back();
    return static_cast<ComponentId>(components_.size() - 1);
  }

  /// Adds a data flow. Pre: both endpoints exist, no self-loop.
  void add_flow(ComponentId from, ComponentId to, DataSize bytes) {
    NTCO_EXPECTS(from < components_.size());
    NTCO_EXPECTS(to < components_.size());
    NTCO_EXPECTS(from != to);
    const auto idx = flows_.size();
    flows_.push_back(DataFlow{from, to, bytes});
    out_[from].push_back(idx);
    in_[to].push_back(idx);
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t component_count() const {
    return components_.size();
  }
  [[nodiscard]] std::size_t flow_count() const { return flows_.size(); }

  [[nodiscard]] const Component& component(ComponentId id) const {
    NTCO_EXPECTS(id < components_.size());
    return components_[id];
  }
  [[nodiscard]] const std::vector<Component>& components() const {
    return components_;
  }
  [[nodiscard]] const DataFlow& flow(std::size_t idx) const {
    NTCO_EXPECTS(idx < flows_.size());
    return flows_[idx];
  }
  [[nodiscard]] const std::vector<DataFlow>& flows() const { return flows_; }

  /// Indices into flows() leaving / entering a component.
  [[nodiscard]] const std::vector<std::size_t>& out_flows(
      ComponentId id) const {
    NTCO_EXPECTS(id < components_.size());
    return out_[id];
  }
  [[nodiscard]] const std::vector<std::size_t>& in_flows(
      ComponentId id) const {
    NTCO_EXPECTS(id < components_.size());
    return in_[id];
  }

  /// Kahn topological order. Throws ConfigError if the graph has a cycle.
  [[nodiscard]] std::vector<ComponentId> topological_order() const;

  /// Components with no incoming / outgoing flows.
  [[nodiscard]] std::vector<ComponentId> sources() const;
  [[nodiscard]] std::vector<ComponentId> sinks() const;

  /// Sum of all component demands.
  [[nodiscard]] Cycles total_work() const;
  /// Sum of all flow payloads.
  [[nodiscard]] DataSize total_flow_bytes() const;
  /// Number of pinned components.
  [[nodiscard]] std::size_t pinned_count() const;

  /// Compute-to-communication ratio: cycles of work per byte of flow.
  /// Pre: total_flow_bytes() > 0.
  [[nodiscard]] double compute_to_communication() const;

  /// Returns a copy with every component's work scaled by `factor`
  /// (used to sweep the compute-to-communication ratio in experiments).
  [[nodiscard]] TaskGraph with_work_scaled(double factor) const;

 private:
  std::string name_;
  std::vector<Component> components_;
  std::vector<DataFlow> flows_;
  std::vector<std::vector<std::size_t>> out_;
  std::vector<std::vector<std::size_t>> in_;
};

}  // namespace ntco::app
