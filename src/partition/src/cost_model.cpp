#include "ntco/partition/cost_model.hpp"

#include <cmath>

namespace ntco::partition {

bool Partition::respects_pins(const app::TaskGraph& g) const {
  if (placement.size() != g.component_count()) return false;
  for (app::ComponentId id = 0; id < g.component_count(); ++id)
    if (g.component(id).pinned_local && is_remote(id)) return false;
  return true;
}

CostModel::CostModel(const app::TaskGraph& graph, Environment env,
                     Objective objective)
    : graph_(graph), env_(std::move(env)), objective_(objective) {
  NTCO_EXPECTS(!env_.device.cpu.is_zero());
  NTCO_EXPECTS(!env_.remote_speed.is_zero());
  NTCO_EXPECTS(!env_.uplink.is_zero());
  NTCO_EXPECTS(!env_.downlink.is_zero());
  // A weight that is not finite makes every cost it touches infinite, and
  // the min-cut then answers whatever the unbounded first push leaves.
  NTCO_EXPECTS(objective.latency_weight >= 0.0 &&
               std::isfinite(objective.latency_weight));
  NTCO_EXPECTS(objective.energy_weight >= 0.0 &&
               std::isfinite(objective.energy_weight));
  NTCO_EXPECTS(objective.money_weight >= 0.0 &&
               std::isfinite(objective.money_weight));
}

double CostModel::scalarize(const SideCosts& c) const {
  return objective_.scalarize(c.latency, c.energy, c.money);
}

CostModel::SideCosts CostModel::local_side(app::ComponentId id) const {
  const auto& comp = graph_.component(id);
  const Duration t = comp.work / env_.device.cpu;
  return SideCosts{t, env_.device.cpu_active * t, Money::zero()};
}

CostModel::SideCosts CostModel::remote_side(app::ComponentId id) const {
  const auto& comp = graph_.component(id);
  const Duration exec = comp.work / env_.remote_speed;
  const Duration t = exec + env_.remote_overhead;
  // The UE idles while the cloud computes.
  const Energy e = env_.device.idle * t;
  const Money m = env_.remote_price_per_second * exec.to_seconds() +
                  env_.price_per_invocation;
  return SideCosts{t, e, m};
}

CostModel::SideCosts CostModel::upload_side(std::size_t idx) const {
  const auto& flow = graph_.flow(idx);
  const Duration t = env_.uplink_latency + flow.bytes / env_.uplink;
  return SideCosts{t, env_.device.radio_tx * t, Money::zero()};
}

CostModel::SideCosts CostModel::download_side(std::size_t idx) const {
  const auto& flow = graph_.flow(idx);
  const Duration t = env_.downlink_latency + flow.bytes / env_.downlink;
  const Money egress =
      env_.egress_price_per_gb *
      (static_cast<double>(flow.bytes.count_bytes()) / 1e9);
  return SideCosts{t, env_.device.radio_rx * t, egress};
}

double CostModel::local_cost(app::ComponentId id) const {
  return scalarize(local_side(id));
}
double CostModel::remote_cost(app::ComponentId id) const {
  return scalarize(remote_side(id));
}
double CostModel::upload_cost(std::size_t idx) const {
  return scalarize(upload_side(idx));
}
double CostModel::download_cost(std::size_t idx) const {
  return scalarize(download_side(idx));
}

double CostModel::evaluate(const Partition& p) const {
  return breakdown(p).objective;
}

CostBreakdown CostModel::breakdown(const Partition& p) const {
  NTCO_EXPECTS(p.placement.size() == graph_.component_count());
  NTCO_EXPECTS(p.respects_pins(graph_));
  SideCosts total;
  auto accumulate = [&total](const SideCosts& c) {
    total.latency += c.latency;
    total.energy += c.energy;
    total.money += c.money;
  };
  for (app::ComponentId id = 0; id < graph_.component_count(); ++id)
    accumulate(p.is_remote(id) ? remote_side(id) : local_side(id));
  for (std::size_t fi = 0; fi < graph_.flow_count(); ++fi) {
    const auto& f = graph_.flow(fi);
    const bool from_remote = p.is_remote(f.from);
    const bool to_remote = p.is_remote(f.to);
    if (!from_remote && to_remote)
      accumulate(upload_side(fi));
    else if (from_remote && !to_remote)
      accumulate(download_side(fi));
  }
  return CostBreakdown{total.latency, total.energy, total.money,
                       scalarize(total)};
}

}  // namespace ntco::partition
