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
/// Layout: add_arc() appends to an input list, and solve() lays every arc
/// and its paired residual arc out in CSR order, as {to, pair, residual}
/// with 32-bit indices. A stable counting sort groups the arcs by tail
/// node and keeps each node's arcs in insertion order (an arc's reverse
/// sits at its head, in the head's insertion order), so the searches read
/// one contiguous array and visit arcs in the order they were added.
///
/// Each phase's BFS stops the moment it labels the sink. A node at or
/// beyond the sink's level lies on no shortest augmenting path, so the DFS
/// finds the same paths in the same order as after a full BFS, and every
/// residual is bit-identical to a full-BFS Dinic's. The BFS that ends
/// solve() misses the sink, so it ran to completion and labels exactly the
/// nodes reachable from the source in the final residual graph: the
/// minimum cut is read from it, with no further search. Only an unbounded
/// s-t path, which ends solve() early, costs one more full BFS.
///
/// reset() empties the network but keeps every buffer's capacity, so a
/// solver reused across networks (MinCutPartitioner keeps one) stops
/// allocating once it has seen its largest one.

namespace ntco::partition {

/// Max-flow solver on a directed graph with double capacities.
class MaxFlow {
 public:
  /// Residual capacities at or below this count as saturated.
  static constexpr double kEps = 1e-12;

  explicit MaxFlow(std::size_t nodes) { reset(nodes); }

  /// Drops every arc and sets the node count to `nodes`; buffers keep
  /// their capacity.
  void reset(std::size_t nodes) {
    NTCO_EXPECTS(nodes < kNone);
    nodes_ = static_cast<Index>(nodes);
    input_.clear();
    start_.clear();
  }

  /// Reserves room for `arcs` add_arc() calls.
  void reserve(std::size_t arcs) {
    input_.reserve(arcs);
    arcs_.reserve(2 * arcs);
  }

  /// Adds a directed arc with the given capacity (and a zero-capacity
  /// reverse arc for the residual graph). Infinite capacity is allowed via
  /// std::numeric_limits<double>::infinity(). An arc of capacity at or
  /// below kEps is left out: it starts saturated and its reverse starts
  /// empty, so neither can ever carry flow, and without them the searches
  /// find the same paths in the same order and every residual and the cut
  /// stay bit-identical.
  void add_arc(std::size_t from, std::size_t to, double capacity) {
    NTCO_EXPECTS(from < nodes_);
    NTCO_EXPECTS(to < nodes_);
    NTCO_EXPECTS(capacity >= 0.0);
    NTCO_EXPECTS(input_.size() < kNone / 2);  // both arcs get an Index
    if (capacity <= kEps) return;
    input_.push_back(
        Input{static_cast<Index>(from), static_cast<Index>(to), capacity});
  }

  /// Computes the maximum s-t flow. Call once, after the last add_arc().
  double solve(std::size_t source, std::size_t sink);

  /// After solve(): true iff `v` is reachable from the source in the
  /// residual graph, i.e. on the source side S of the minimum cut.
  [[nodiscard]] bool in_source_side(std::size_t v) const {
    NTCO_EXPECTS(start_.size() == nodes_ + 1u);  // solve() ran
    NTCO_EXPECTS(v < nodes_);
    return level_[v] >= 0;
  }

  /// After solve(): `in_source_side[v]` for every node. `source` must be
  /// the source solve() was given.
  [[nodiscard]] std::vector<bool> min_cut_source_side(
      std::size_t source) const;

 private:
  using Index = std::uint32_t;
  /// Sentinel: no node, and one past the largest node or arc count.
  static constexpr Index kNone = std::numeric_limits<Index>::max();

  /// One add_arc() call, kept until solve() lays it out.
  struct Input {
    Index from;
    Index to;
    double capacity;
  };
  struct Arc {
    Index to;
    Index pair;       ///< position of the paired reverse arc
    double residual;  ///< residual capacity
  };

  /// Levels nodes by residual BFS distance from `source` (-1 when not
  /// labelled) and returns once `stop` is labelled; kNone searches all.
  void bfs(Index source, Index stop);
  double dfs(Index v, Index sink, double pushed);

  Index nodes_ = 0;
  std::vector<Input> input_;
  /// CSR arcs: node v's are arcs_[i] for i in [start_[v], start_[v + 1]).
  std::vector<Arc> arcs_;
  std::vector<Index> start_;
  std::vector<int> level_;
  std::vector<Index> iter_;  ///< per node: next position in arcs_
  std::vector<Index> queue_;
};

}  // namespace ntco::partition
