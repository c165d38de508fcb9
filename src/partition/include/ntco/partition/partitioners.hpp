#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ntco/common/rng.hpp"
#include "ntco/partition/cost_model.hpp"
#include "ntco/partition/max_flow.hpp"

/// \file partitioners.hpp
/// Code-partitioning algorithms (the abstract's third contribution).
///
/// Every partitioner maps (task graph, cost model) to a pin-respecting
/// Partition. MinCutPartitioner is the framework's algorithm: it is exact
/// for the separable objective. The others are the baselines and searchers
/// the evaluation compares against (Table T2, Figure A1):
///
///   LocalOnly   – the no-offloading status quo,
///   RemoteAll   – naive full offload of everything not pinned,
///   Random      – sanity baseline,
///   Greedy      – iterative best-single-move hill climbing,
///   Annealing   – simulated annealing over placements,
///   Exhaustive  – ground truth for graphs with <= 24 free components,
///   MinCut      – optimal via s-t minimum cut (Dinic).

namespace ntco::partition {

/// Interface all partitioning algorithms implement.
class Partitioner {
 public:
  virtual ~Partitioner() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Produces a pin-respecting partition of model.graph().
  [[nodiscard]] virtual Partition plan(const CostModel& model) const = 0;
};

/// Everything stays on the UE.
class LocalOnlyPartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "local-only"; }
  [[nodiscard]] Partition plan(const CostModel& model) const override;
};

/// Everything not pinned goes remote.
class RemoteAllPartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "remote-all"; }
  [[nodiscard]] Partition plan(const CostModel& model) const override;
};

/// Each unpinned component offloaded with probability `p_remote`.
class RandomPartitioner final : public Partitioner {
 public:
  RandomPartitioner(double p_remote, Rng rng);
  [[nodiscard]] std::string name() const override { return "random"; }
  [[nodiscard]] Partition plan(const CostModel& model) const override;

 private:
  double p_remote_;
  mutable Rng rng_;
};

/// Hill climbing: start all-local, repeatedly apply the single placement
/// flip with the largest objective improvement until none improves.
class GreedyPartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "greedy"; }
  [[nodiscard]] Partition plan(const CostModel& model) const override;
};

/// Simulated annealing over single-flip moves.
class AnnealingPartitioner final : public Partitioner {
 public:
  struct Params {
    std::size_t iterations = 20'000;
  };
  /// Starting temperature, relative to the all-local objective.
  static constexpr double kInitialTemperature = 1.0;
  /// Geometric cooling factor per iteration.
  static constexpr double kCooling = 0.9995;
  static_assert(kInitialTemperature > 0.0);
  static_assert(kCooling > 0.0 && kCooling < 1.0);

  AnnealingPartitioner(Params params, Rng rng);
  [[nodiscard]] std::string name() const override { return "annealing"; }
  [[nodiscard]] Partition plan(const CostModel& model) const override;

 private:
  Params params_;
  mutable Rng rng_;
};

/// Enumerates every pin-respecting partition. Pre: <= kMaxFree unpinned
/// components (throws ConfigError beyond that).
class ExhaustivePartitioner final : public Partitioner {
 public:
  /// Largest number of unpinned components plan() enumerates (2^24
  /// partitions).
  static constexpr std::size_t kMaxFree = 24;
  static_assert(kMaxFree < 64, "plan() enumerates with 1ULL << free count");

  [[nodiscard]] std::string name() const override { return "exhaustive"; }
  [[nodiscard]] Partition plan(const CostModel& model) const override;
};

/// Exact polynomial-time optimum via s-t minimum cut.
///
/// Construction: source s = device side, sink t = cloud side. For every
/// component v, arc s->v with capacity c_remote(v) (cut iff v lands remote)
/// and arc v->t with capacity c_local(v) (cut iff v stays local); pinned
/// components get an infinite s->v arc. For every flow (u,v), arc u->v with
/// capacity c_upload and arc v->u with capacity c_download, so exactly the
/// crossing direction's cost enters the cut. The minimum cut value equals
/// the minimum of the separable objective, and the source side of the cut
/// is the optimal local set.
///
/// The network is built with Dinic's first phase already pushed. That
/// phase's BFS puts every v with both terminal capacities above
/// MaxFlow::kEps at level 1 and the sink at level 2, and each such v lists
/// the reverse of s->v and then v->t first, so the phase pushes exactly
/// min(c_remote(v), c_local(v)) along s->v->t for each of them and nothing
/// else. plan() subtracts that minimum from both terminal arcs as it adds
/// them, which leaves every forward residual bit-identical to the phase's
/// outcome. The reverse residuals of the terminal arcs differ, and never
/// matter: no augmenting path re-enters s or passes through t, and the
/// final BFS never reaches t. The cut, and so the placement, is the one a
/// plain Dinic's finds. An infinite minimum is left in place: only an
/// infinite objective weight gives one, and then every cost is infinite,
/// so the plain network's first push is unbounded and ends solve() the
/// same way. The terminal arc the phase empties, and every other arc of
/// zero capacity (a zero objective weight makes many), never enters the
/// network: MaxFlow::add_arc() leaves out arcs that can never carry flow.
///
/// The solver is scratch reused across plan() calls, so a warm plan
/// allocates only its Partition. Like Random and Annealing, which keep a
/// mutable Rng, one MinCutPartitioner must not plan on two threads at
/// once: give each shard its own.
class MinCutPartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "min-cut"; }
  [[nodiscard]] Partition plan(const CostModel& model) const override;

 private:
  mutable MaxFlow flow_{0};
};

/// The portfolio the benches iterate over (excludes Exhaustive, which is
/// size-limited). Random/annealing seeds derive from `seed`.
[[nodiscard]] std::vector<std::unique_ptr<Partitioner>> standard_portfolio(
    std::uint64_t seed);

}  // namespace ntco::partition
