#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "ntco/common/contracts.hpp"

/// \file max_flow.hpp
/// Dinic's maximum-flow / minimum-cut over real-valued capacities.
///
/// Used by MinCutPartitioner on the MAUI-style flow network and by the
/// alpha-expansion's binary cuts; node counts are small (components + 2),
/// so the O(V^2 E) bound is irrelevant, but the implementation is a
/// faithful Dinic with BFS level graphs and DFS blocking flows and handles
/// arbitrary graphs.
///
/// Storage is flat: every arc and its paired residual arc sit in one
/// vector, and solve() builds a CSR adjacency (one array of arc indices
/// grouped by tail node, plus one start offset per node) once. Each node
/// lists its arcs in insertion order, so the search visits them in the
/// order they were added.

namespace ntco::partition {

/// Max-flow solver on a directed graph with double capacities.
class MaxFlow {
 public:
  explicit MaxFlow(std::size_t nodes) : nodes_(nodes) {}

  /// Reserves room for `arcs` add_arc() calls.
  void reserve(std::size_t arcs) { arcs_.reserve(2 * arcs); }

  /// Adds a directed arc with the given capacity (and a zero-capacity
  /// reverse arc for the residual graph). Infinite capacity is allowed via
  /// std::numeric_limits<double>::infinity().
  void add_arc(std::size_t from, std::size_t to, double capacity) {
    NTCO_EXPECTS(from < nodes_);
    NTCO_EXPECTS(to < nodes_);
    NTCO_EXPECTS(capacity >= 0.0);
    arcs_.push_back(Arc{to, capacity});
    arcs_.push_back(Arc{from, 0.0});
  }

  /// Computes the maximum s-t flow. Call once, after the last add_arc().
  double solve(std::size_t source, std::size_t sink);

  /// After solve(): nodes reachable from the source in the residual graph
  /// (the source side S of the minimum cut). `in_source_side[v]` is true
  /// iff v in S.
  [[nodiscard]] std::vector<bool> min_cut_source_side(std::size_t source);

 private:
  struct Arc {
    std::size_t to;
    double cap;  ///< residual capacity
  };

  /// Levels every node by residual BFS distance from `source` (-1 when
  /// unreachable).
  void bfs(std::size_t source);
  double dfs(std::size_t v, std::size_t sink, double pushed);
  /// Tail of arc `e`: the head of its pair.
  [[nodiscard]] std::size_t tail(std::size_t e) const {
    return arcs_[e ^ 1].to;
  }

  static constexpr double kEps = 1e-12;

  std::size_t nodes_;
  /// Arc 2k is the k-th added arc and 2k + 1 its reverse.
  std::vector<Arc> arcs_;
  /// CSR adjacency: node v's arcs are out_[i] for i in
  /// [start_[v], start_[v + 1]).
  std::vector<std::size_t> start_;
  std::vector<std::size_t> out_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;  ///< per node: next position in out_
  std::vector<std::size_t> queue_;
};

}  // namespace ntco::partition
