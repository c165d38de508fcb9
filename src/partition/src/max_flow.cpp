#include "ntco/partition/max_flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ntco::partition {

void MaxFlow::bfs(std::size_t source) {
  level_.assign(nodes_, -1);
  queue_.clear();
  queue_.push_back(source);
  level_[source] = 0;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const std::size_t v = queue_[head];
    for (std::size_t i = start_[v]; i < start_[v + 1]; ++i) {
      const Arc& e = arcs_[out_[i]];
      if (e.cap > kEps && level_[e.to] < 0) {
        level_[e.to] = level_[v] + 1;
        queue_.push_back(e.to);
      }
    }
  }
}

double MaxFlow::dfs(std::size_t v, std::size_t sink, double pushed) {
  if (v == sink) return pushed;
  for (std::size_t& i = iter_[v]; i < start_[v + 1]; ++i) {
    const std::size_t ei = out_[i];
    Arc& e = arcs_[ei];
    if (e.cap > kEps && level_[e.to] == level_[v] + 1) {
      const double got = dfs(e.to, sink, std::min(pushed, e.cap));
      if (got > kEps) {
        e.cap -= got;
        arcs_[ei ^ 1].cap += got;  // paired reverse arc
        return got;
      }
    }
  }
  return 0.0;
}

double MaxFlow::solve(std::size_t source, std::size_t sink) {
  NTCO_EXPECTS(source < nodes_);
  NTCO_EXPECTS(sink < nodes_);
  NTCO_EXPECTS(source != sink);

  // Counting sort of the arcs by tail; a stable pass keeps each node's
  // arcs in insertion order.
  start_.assign(nodes_ + 1, 0);
  for (std::size_t e = 0; e < arcs_.size(); ++e) ++start_[tail(e) + 1];
  for (std::size_t v = 0; v < nodes_; ++v) start_[v + 1] += start_[v];
  out_.resize(arcs_.size());
  iter_.assign(start_.begin(), start_.end() - 1);
  for (std::size_t e = 0; e < arcs_.size(); ++e) out_[iter_[tail(e)]++] = e;
  queue_.reserve(nodes_);

  double flow = 0.0;
  const double inf = std::numeric_limits<double>::infinity();
  bfs(source);
  while (level_[sink] >= 0) {
    iter_.assign(start_.begin(), start_.end() - 1);
    for (;;) {
      const double pushed = dfs(source, sink, inf);
      if (pushed <= kEps) break;
      if (std::isinf(pushed)) return inf;  // unbounded s-t path
      flow += pushed;
    }
    bfs(source);
  }
  return flow;
}

std::vector<bool> MaxFlow::min_cut_source_side(std::size_t source) {
  NTCO_EXPECTS(source < nodes_);
  NTCO_EXPECTS(start_.size() == nodes_ + 1);  // solve() built the adjacency
  bfs(source);
  std::vector<bool> side(nodes_, false);
  for (std::size_t v = 0; v < nodes_; ++v) side[v] = level_[v] >= 0;
  return side;
}

}  // namespace ntco::partition
