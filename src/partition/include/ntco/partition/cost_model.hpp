#pragma once

#include <string>
#include <vector>

#include "ntco/app/task_graph.hpp"
#include "ntco/common/contracts.hpp"
#include "ntco/common/units.hpp"
#include "ntco/device/device.hpp"

/// \file cost_model.hpp
/// Partition representation and the separable offloading cost model.
///
/// The objective is the classic MAUI-style separable form over a sequential
/// execution of the DAG:
///
///   J(P) =   sum_{v local}  c_local(v)
///          + sum_{v remote} c_remote(v)
///          + sum_{(u,v) cut} c_transfer(u,v)
///
/// where every c is a weighted combination of latency, UE energy, and cloud
/// money. Separability is what makes the optimal partition an s-t min cut
/// (see MinCutPartitioner); the end-to-end simulator in ntco::core executes
/// the same sequential model, so objective values predict simulated runs.

namespace ntco::partition {

/// Where a component executes.
enum class Placement : std::uint8_t { Local, Remote };

/// An assignment of every component to a side.
struct Partition {
  std::vector<Placement> placement;

  [[nodiscard]] bool is_remote(app::ComponentId id) const {
    NTCO_EXPECTS(id < placement.size());
    return placement[id] == Placement::Remote;
  }
  [[nodiscard]] std::size_t remote_count() const {
    std::size_t n = 0;
    for (const auto p : placement)
      if (p == Placement::Remote) ++n;
    return n;
  }
  /// Compact rendering, e.g. "LRRL".
  [[nodiscard]] std::string to_string() const {
    std::string s;
    s.reserve(placement.size());
    append_to(s);
    return s;
  }
  /// Appends the to_string() rendering to `out`.
  void append_to(std::string& out) const {
    for (const auto p : placement)
      out.push_back(p == Placement::Remote ? 'R' : 'L');
  }
  /// True if every pinned component of `g` is local.
  [[nodiscard]] bool respects_pins(const app::TaskGraph& g) const;

  [[nodiscard]] static Partition all_local(std::size_t n) {
    return Partition{std::vector<Placement>(n, Placement::Local)};
  }

  friend bool operator==(const Partition&, const Partition&) = default;
};

/// Linear objective weights, each finite and non-negative (CostModel refuses
/// any other). Units: latency in seconds, energy in joules,
/// money in USD. The defaults optimise latency only.
struct Objective {
  double latency_weight = 1.0;
  double energy_weight = 0.0;
  double money_weight = 0.0;

  /// Presets used throughout the evaluation.
  [[nodiscard]] static Objective latency() { return {1.0, 0.0, 0.0}; }
  [[nodiscard]] static Objective energy() { return {0.0, 1.0, 0.0}; }
  [[nodiscard]] static Objective cost() { return {0.0, 0.0, 1.0}; }
  /// Non-time-critical blend: money dominates, latency is a tie-breaker,
  /// battery matters.
  [[nodiscard]] static Objective non_time_critical() {
    return {0.01, 0.1, 1.0};
  }

  /// The one weighted sum every cost is priced by. Inline: the min-cut
  /// prices every term of its network through it.
  [[nodiscard]] double scalarize(Duration latency, Energy energy,
                                 Money money) const {
    return latency_weight * latency.to_seconds() +
           energy_weight * energy.to_joules() + money_weight * money.to_usd();
  }
};

/// Everything the cost model needs to price one side or the boundary.
/// Built from a concrete device + serverless allocation + network profile by
/// core::make_environment(); kept as plain values here so the partition
/// module stays independent of the platform simulators.
struct Environment {
  device::DeviceSpec device;

  /// Effective remote core speed after the memory allocation's CPU share.
  Frequency remote_speed = Frequency::gigahertz(2.5);
  /// Expected per-invocation remote overhead (dispatch + amortised cold
  /// start at the expected warm-hit rate).
  Duration remote_overhead = Duration::millis(5);
  /// Cloud price per remote compute-second at the chosen memory.
  Money remote_price_per_second = Money::nano_usd(29'000);
  /// Flat per-invocation fee.
  Money price_per_invocation = Money::nano_usd(200);

  DataRate uplink = DataRate::megabits_per_second(10);
  DataRate downlink = DataRate::megabits_per_second(30);
  Duration uplink_latency = Duration::millis(25);
  Duration downlink_latency = Duration::millis(25);
  /// Cloud egress price per byte sent back to the UE (ingress is free).
  Money egress_price_per_gb = Money::from_usd(0.09);
};

/// Per-partition totals in physical units plus the scalar objective.
struct CostBreakdown {
  Duration latency;
  Energy energy;
  Money money;
  double objective = 0.0;
};

/// Evaluates partitions of one graph under one environment and objective.
///
/// Nothing is precomputed: every cost is priced from the graph and the
/// environment on each call, and evaluate() is O(n + m): one side per
/// component plus one term per crossing flow.
class CostModel {
 public:
  CostModel(const app::TaskGraph& graph, Environment env, Objective objective);

  [[nodiscard]] const app::TaskGraph& graph() const { return graph_; }
  [[nodiscard]] const Environment& environment() const { return env_; }
  [[nodiscard]] const Objective& objective() const { return objective_; }

  /// Objective contribution of running `id` on the UE.
  [[nodiscard]] double local_cost(app::ComponentId id) const;
  /// Objective contribution of running `id` remotely.
  [[nodiscard]] double remote_cost(app::ComponentId id) const;
  /// Objective contribution of flow `idx` crossing local -> remote (upload).
  [[nodiscard]] double upload_cost(std::size_t idx) const;
  /// Objective contribution of flow `idx` crossing remote -> local
  /// (download).
  [[nodiscard]] double download_cost(std::size_t idx) const;

  /// Total objective of a partition. Pre: sizes match; pins respected.
  [[nodiscard]] double evaluate(const Partition& p) const;

  /// Latency/energy/money totals of a partition (for reporting).
  [[nodiscard]] CostBreakdown breakdown(const Partition& p) const;

 private:
  struct SideCosts {
    Duration latency;
    Energy energy;
    Money money;
  };
  [[nodiscard]] double scalarize(const SideCosts& c) const;
  [[nodiscard]] SideCosts local_side(app::ComponentId id) const;
  [[nodiscard]] SideCosts remote_side(app::ComponentId id) const;
  [[nodiscard]] SideCosts upload_side(std::size_t idx) const;
  [[nodiscard]] SideCosts download_side(std::size_t idx) const;

  const app::TaskGraph& graph_;
  Environment env_;
  Objective objective_;
};

}  // namespace ntco::partition
