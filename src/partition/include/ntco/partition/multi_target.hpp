#pragma once

#include <array>
#include <string>
#include <vector>

#include "ntco/app/task_graph.hpp"
#include "ntco/common/units.hpp"
#include "ntco/device/device.hpp"

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

/// Execution parameters of one remote site (edge or cloud).
struct SiteParams {
  Frequency speed = Frequency::gigahertz(2.5);
  Duration overhead = Duration::millis(5);     ///< per-invocation
  Money price_per_second = Money::nano_usd(29'000);
  Money price_per_invocation = Money::nano_usd(200);
  /// Link from/to the UE.
  DataRate uplink = DataRate::megabits_per_second(10);
  DataRate downlink = DataRate::megabits_per_second(30);
  Duration uplink_latency = Duration::millis(25);
  Duration downlink_latency = Duration::millis(25);
  Money egress_price_per_gb = Money::from_usd(0.09);
};

/// The full three-site world the multi cost model prices against.
struct MultiEnvironment {
  device::DeviceSpec device;
  SiteParams edge;
  SiteParams cloud;
  /// Backhaul between the edge site and the cloud region (no UE energy).
  DataRate backhaul_rate = DataRate::megabits_per_second(1000);
  Duration backhaul_latency = Duration::millis(15);
};

/// Sensible defaults: a 4G UE, an on-prem edge site on LAN, a serverless
/// cloud region over the WAN.
[[nodiscard]] MultiEnvironment default_multi_environment();

/// Objective weights are shared with the binary model (cost_model.hpp).
struct Objective;  // fwd (defined in cost_model.hpp)

/// Separable 3-label cost model: per-component site costs plus per-flow
/// site-pair transfer costs.
class MultiCostModel {
 public:
  MultiCostModel(const app::TaskGraph& graph, MultiEnvironment env,
                 double latency_weight, double energy_weight,
                 double money_weight);

  [[nodiscard]] const app::TaskGraph& graph() const { return graph_; }

  /// Objective contribution of running `id` at `s`.
  [[nodiscard]] double site_cost(app::ComponentId id, Site s) const;

  /// Objective contribution of flow `idx` crossing `from` -> `to`
  /// (0 when from == to).
  [[nodiscard]] double transfer_cost(std::size_t idx, Site from,
                                     Site to) const;

  /// Total objective. Pre: sizes match, pins respected.
  [[nodiscard]] double evaluate(const MultiPartition& p) const;

 private:
  const app::TaskGraph& graph_;
  MultiEnvironment env_;
  double w_lat_;
  double w_energy_;
  double w_money_;
};

/// Interface of the 3-way partitioners.
class MultiPartitioner {
 public:
  virtual ~MultiPartitioner() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual MultiPartition plan(const MultiCostModel& m) const = 0;
};

/// Enumerates all 3^free assignments. Throws ConfigError beyond
/// `kMaxFree` free components.
class MultiExhaustivePartitioner final : public MultiPartitioner {
 public:
  /// Largest free-component count enumerated (3^15 ≈ 14M assignments).
  static constexpr std::size_t kMaxFree = 15;

  [[nodiscard]] std::string name() const override { return "exhaustive-3"; }
  [[nodiscard]] MultiPartition plan(const MultiCostModel& m) const override;
};

/// Alpha-expansion over the three labels using binary min cuts. Pairwise
/// terms that violate the triangle inequality are truncated (standard),
/// keeping every expansion move non-worsening.
class AlphaExpansionPartitioner final : public MultiPartitioner {
 public:
  /// Sweeps over the three labels before giving up on convergence (a sweep
  /// that improves nothing stops earlier).
  static constexpr std::size_t kMaxSweeps = 10;

  [[nodiscard]] std::string name() const override { return "alpha-expansion"; }
  [[nodiscard]] MultiPartition plan(const MultiCostModel& m) const override;
};

}  // namespace ntco::partition
