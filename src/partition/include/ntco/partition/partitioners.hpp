#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ntco/common/rng.hpp"
#include "ntco/partition/cost_model.hpp"

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

/// Enumerates every pin-respecting partition. Pre: <= `max_free` unpinned
/// components (throws ConfigError beyond that).
class ExhaustivePartitioner final : public Partitioner {
 public:
  explicit ExhaustivePartitioner(std::size_t max_free = 24)
      : max_free_(max_free) {}
  [[nodiscard]] std::string name() const override { return "exhaustive"; }
  [[nodiscard]] Partition plan(const CostModel& model) const override;

 private:
  std::size_t max_free_;
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
class MinCutPartitioner final : public Partitioner {
 public:
  [[nodiscard]] std::string name() const override { return "min-cut"; }
  [[nodiscard]] Partition plan(const CostModel& model) const override;
};

/// The portfolio the benches iterate over (excludes Exhaustive, which is
/// size-limited). Random/annealing seeds derive from `seed`.
[[nodiscard]] std::vector<std::unique_ptr<Partitioner>> standard_portfolio(
    std::uint64_t seed);

}  // namespace ntco::partition
