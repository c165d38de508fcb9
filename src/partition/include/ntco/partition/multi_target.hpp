#pragma once

#include <array>
#include <string>
#include <vector>

#include "ntco/app/task_graph.hpp"
#include "ntco/common/units.hpp"
#include "ntco/partition/cost_model.hpp"

/// \file multi_target.hpp
/// Three-way placement: Device / Edge / Cloud.
///
/// The binary partitioner answers "phone or cloud?"; real deployments may
/// also have an edge site. Placement becomes a 3-label assignment with
/// pairwise transfer costs that depend on which pair of sites a flow
/// crosses (UE<->edge LAN, UE<->cloud WAN, edge<->cloud backhaul). The
/// optimal assignment is NP-hard in general (multiway cut), so the
/// framework provides:
///   MultiExhaustivePartitioner — ground truth for <= 15 free components,
///   AlphaExpansionPartitioner  — graph-cut alpha-expansion (Boykov-
///                                Veksler-Zabih) on top of the same Dinic
///                                max-flow core; near-optimal in practice
///                                and polynomial per sweep.

namespace ntco::partition {

/// Placement site of one component.
enum class Site : std::uint8_t { Device = 0, Edge = 1, Cloud = 2 };

inline constexpr std::array<Site, 3> kAllSites{Site::Device, Site::Edge,
                                               Site::Cloud};

[[nodiscard]] const char* to_string(Site s);

/// An assignment of every component to a site.
struct MultiPartition {
  std::vector<Site> site;

  [[nodiscard]] std::size_t count(Site s) const {
    std::size_t n = 0;
    for (const auto x : site)
      if (x == s) ++n;
    return n;
  }
  /// Compact rendering, e.g. "DECD" (D=device, E=edge, C=cloud).
  [[nodiscard]] std::string to_string() const;
  [[nodiscard]] bool respects_pins(const app::TaskGraph& g) const;

  [[nodiscard]] static MultiPartition all_device(std::size_t n) {
    return MultiPartition{std::vector<Site>(n, Site::Device)};
  }

  friend bool operator==(const MultiPartition&, const MultiPartition&) =
      default;
};

/// The full three-site world the multi cost model prices against: the
/// two-site Environment of each remote site (one UE), plus the backhaul.
struct MultiEnvironment {
  Environment edge;
  Environment cloud;
  /// Backhaul between the edge site and the cloud region (no UE energy).
  DataRate backhaul_rate = DataRate::megabits_per_second(1000);
  Duration backhaul_latency = Duration::millis(15);
};

/// Sensible defaults: a 4G UE, an on-prem edge site on LAN, a serverless
/// cloud region over the WAN.
[[nodiscard]] MultiEnvironment default_multi_environment();

/// Separable 3-label cost model: per-component site costs plus per-flow
/// site-pair transfer costs. A term that involves the UE is that site's
/// CostModel term; only the edge<->cloud backhaul is priced here.
class MultiCostModel {
 public:
  /// Pre: CostModel's for each site, one UE for both, a non-zero backhaul
  /// rate and a non-negative backhaul latency.
  MultiCostModel(const app::TaskGraph& graph, const MultiEnvironment& env,
                 Objective objective);

  [[nodiscard]] const app::TaskGraph& graph() const { return cloud_.graph(); }

  /// Objective contribution of running `id` at `s`.
  [[nodiscard]] double site_cost(app::ComponentId id, Site s) const;

  /// Objective contribution of flow `idx` crossing `from` -> `to`
  /// (0 when from == to).
  [[nodiscard]] double transfer_cost(std::size_t idx, Site from,
                                     Site to) const;

  /// Total objective. Pre: sizes match, pins respected.
  [[nodiscard]] double evaluate(const MultiPartition& p) const;

 private:
  /// The two-site model of remote site `s` (edge or cloud).
  [[nodiscard]] const CostModel& remote(Site s) const {
    return s == Site::Edge ? edge_ : cloud_;
  }

  CostModel edge_;
  CostModel cloud_;
  DataRate backhaul_rate_;
  Duration backhaul_latency_;
};

/// Enumerates all 3^free assignments. Throws ConfigError beyond
/// `kMaxFree` free components.
class MultiExhaustivePartitioner {
 public:
  /// Largest free-component count enumerated (3^15 ≈ 14M assignments).
  static constexpr std::size_t kMaxFree = 15;

  [[nodiscard]] MultiPartition plan(const MultiCostModel& m) const;
};

/// Alpha-expansion over the three labels using binary min cuts. Pairwise
/// terms that violate the triangle inequality are truncated (standard),
/// keeping every expansion move non-worsening.
class AlphaExpansionPartitioner {
 public:
  /// Sweeps over the three labels before giving up on convergence (a sweep
  /// that improves nothing stops earlier).
  static constexpr std::size_t kMaxSweeps = 10;

  [[nodiscard]] MultiPartition plan(const MultiCostModel& m) const;
};

}  // namespace ntco::partition
