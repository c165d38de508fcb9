#include "ntco/app/task_graph.hpp"

#include "ntco/common/error.hpp"

namespace ntco::app {

std::vector<ComponentId> TaskGraph::topological_order() const {
  std::vector<std::size_t> indegree(components_.size(), 0);
  for (const auto& f : flows_) ++indegree[f.to];

  // Kahn's algorithm with `order` as its FIFO: order[head] is dequeued,
  // and a component is appended when its last predecessor is.
  std::vector<ComponentId> order;
  order.reserve(components_.size());
  for (ComponentId v = 0; v < components_.size(); ++v)
    if (indegree[v] == 0) order.push_back(v);
  for (std::size_t head = 0; head < order.size(); ++head) {
    for (const std::size_t fi : out_[order[head]]) {
      const ComponentId w = flows_[fi].to;
      if (--indegree[w] == 0) order.push_back(w);
    }
  }
  if (order.size() != components_.size())
    throw ConfigError("TaskGraph '" + name_ + "' contains a cycle");
  return order;
}

std::vector<ComponentId> TaskGraph::sources() const {
  std::vector<ComponentId> out;
  for (ComponentId v = 0; v < components_.size(); ++v)
    if (in_[v].empty()) out.push_back(v);
  return out;
}

std::vector<ComponentId> TaskGraph::sinks() const {
  std::vector<ComponentId> out;
  for (ComponentId v = 0; v < components_.size(); ++v)
    if (out_[v].empty()) out.push_back(v);
  return out;
}

Cycles TaskGraph::total_work() const {
  Cycles total;
  for (const auto& c : components_) total += c.work;
  return total;
}

DataSize TaskGraph::total_flow_bytes() const {
  DataSize total;
  for (const auto& f : flows_) total += f.bytes;
  return total;
}

std::size_t TaskGraph::pinned_count() const {
  std::size_t n = 0;
  for (const auto& c : components_)
    if (c.pinned_local) ++n;
  return n;
}

double TaskGraph::compute_to_communication() const {
  const auto bytes = total_flow_bytes();
  NTCO_EXPECTS(!bytes.is_zero());
  return static_cast<double>(total_work().value()) /
         static_cast<double>(bytes.count_bytes());
}

TaskGraph TaskGraph::with_work_scaled(double factor) const {
  NTCO_EXPECTS(factor > 0.0);
  TaskGraph g(name_);
  for (const auto& c : components_) {
    Component scaled = c;
    scaled.work = c.work * factor;
    (void)g.add_component(std::move(scaled));
  }
  for (const auto& f : flows_) g.add_flow(f.from, f.to, f.bytes);
  return g;
}

}  // namespace ntco::app
