#include "ntco/partition/max_flow.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace ntco::partition {

void MaxFlow::bfs(Index source, Index stop) {
  level_.assign(nodes_, -1);
  queue_.clear();
  queue_.push_back(source);
  level_[source] = 0;
  for (std::size_t head = 0; head < queue_.size(); ++head) {
    const Index v = queue_[head];
    const int next = level_[v] + 1;
    for (Index i = start_[v]; i < start_[v + 1]; ++i) {
      const Arc& e = arcs_[i];
      if (e.residual > kEps && level_[e.to] < 0) {
        level_[e.to] = next;
        if (e.to == stop) return;
        queue_.push_back(e.to);
      }
    }
  }
}

double MaxFlow::dfs(Index v, Index sink, double pushed) {
  if (v == sink) return pushed;
  const int next = level_[v] + 1;
  for (Index& i = iter_[v]; i < start_[v + 1]; ++i) {
    Arc& e = arcs_[i];
    if (e.residual > kEps && level_[e.to] == next) {
      const double got = dfs(e.to, sink, std::min(pushed, e.residual));
      if (got > kEps) {
        e.residual -= got;
        arcs_[e.pair].residual += got;
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
  const auto s = static_cast<Index>(source);
  const auto t = static_cast<Index>(sink);

  // Counting sort by tail. Walking the input in order and placing each
  // arc at its tail and its reverse at its head keeps every node's arcs in
  // insertion order.
  start_.assign(nodes_ + 1u, 0);
  for (const Input& a : input_) {
    ++start_[a.from + 1];
    ++start_[a.to + 1];
  }
  for (Index v = 0; v < nodes_; ++v) start_[v + 1] += start_[v];
  iter_.assign(start_.begin(), start_.end() - 1);
  arcs_.resize(2 * input_.size());
  for (const Input& a : input_) {
    const Index forward = iter_[a.from]++;
    const Index reverse = iter_[a.to]++;
    arcs_[forward] = Arc{a.to, reverse, a.capacity};
    arcs_[reverse] = Arc{a.from, forward, 0.0};
  }
  queue_.reserve(nodes_);

  double flow = 0.0;
  const double inf = std::numeric_limits<double>::infinity();
  bfs(s, t);
  while (level_[t] >= 0) {
    iter_.assign(start_.begin(), start_.end() - 1);
    for (;;) {
      const double pushed = dfs(s, t, inf);
      if (pushed <= kEps) break;
      if (std::isinf(pushed)) {  // unbounded s-t path
        bfs(s, kNone);           // label the residual-reachable set
        return inf;
      }
      flow += pushed;
    }
    bfs(s, t);
  }
  return flow;
}

std::vector<bool> MaxFlow::min_cut_source_side(std::size_t source) const {
  NTCO_EXPECTS(source < nodes_);
  NTCO_EXPECTS(start_.size() == nodes_ + 1u);  // solve() ran
  NTCO_EXPECTS(level_[source] == 0);           // ...from this source
  std::vector<bool> side(nodes_, false);
  for (Index v = 0; v < nodes_; ++v) side[v] = level_[v] >= 0;
  return side;
}

}  // namespace ntco::partition
