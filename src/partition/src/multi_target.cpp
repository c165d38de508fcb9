#include "ntco/partition/multi_target.hpp"

#include <algorithm>
#include <limits>

#include "ntco/common/error.hpp"
#include "ntco/partition/max_flow.hpp"

namespace ntco::partition {

const char* to_string(Site s) {
  switch (s) {
    case Site::Device: return "device";
    case Site::Edge: return "edge";
    case Site::Cloud: return "cloud";
  }
  return "?";
}

std::string MultiPartition::to_string() const {
  std::string out;
  out.reserve(site.size());
  for (const auto s : site) {
    switch (s) {
      case Site::Device: out.push_back('D'); break;
      case Site::Edge: out.push_back('E'); break;
      case Site::Cloud: out.push_back('C'); break;
    }
  }
  return out;
}

bool MultiPartition::respects_pins(const app::TaskGraph& g) const {
  if (site.size() != g.component_count()) return false;
  for (app::ComponentId id = 0; id < g.component_count(); ++id)
    if (g.component(id).pinned_local && site[id] != Site::Device) return false;
  return true;
}

MultiEnvironment default_multi_environment() {
  MultiEnvironment env;
  env.cloud.device = device::budget_phone();  // Environment's cloud region

  env.edge = env.cloud;
  env.edge.remote_speed = Frequency::gigahertz(3.0);
  env.edge.remote_overhead = Duration::millis(2);
  // Amortised infra price per busy-second of a $0.12/server-hour site at
  // the ~5% utilisation a single-tenant edge box sees from sporadic
  // non-time-critical jobs (F5 measures how this collapses under load).
  env.edge.remote_price_per_second = Money::from_usd(0.12 / 3600.0 / 0.05);
  env.edge.price_per_invocation = Money::zero();
  env.edge.uplink = DataRate::megabits_per_second(100);
  env.edge.downlink = DataRate::megabits_per_second(100);
  env.edge.uplink_latency = Duration::millis(1);
  env.edge.downlink_latency = Duration::millis(1);
  env.edge.egress_price_per_gb = Money::zero();
  return env;
}

MultiCostModel::MultiCostModel(const app::TaskGraph& graph,
                               const MultiEnvironment& env,
                               Objective objective)
    : edge_(graph, env.edge, objective),
      cloud_(graph, env.cloud, objective),
      backhaul_rate_(env.backhaul_rate),
      backhaul_latency_(env.backhaul_latency) {
  NTCO_EXPECTS(env.edge.device == env.cloud.device);
  NTCO_EXPECTS(!backhaul_rate_.is_zero());
  NTCO_EXPECTS(!backhaul_latency_.is_negative());
}

double MultiCostModel::site_cost(app::ComponentId id, Site s) const {
  return s == Site::Device ? cloud_.local_cost(id) : remote(s).remote_cost(id);
}

double MultiCostModel::transfer_cost(std::size_t idx, Site from,
                                     Site to) const {
  if (from == to) return 0.0;
  // Device <-> remote site: the UE radio pays time and energy.
  if (from == Site::Device) return remote(to).upload_cost(idx);
  if (to == Site::Device) return remote(from).download_cost(idx);
  // Edge <-> cloud backhaul: latency only for the UE's clock; cloud egress
  // applies when data leaves the cloud toward the edge.
  const auto& f = graph().flow(idx);
  const double gb = static_cast<double>(f.bytes.count_bytes()) / 1e9;
  const Duration t = backhaul_latency_ + f.bytes / backhaul_rate_;
  const Money egress = from == Site::Cloud
                           ? cloud_.environment().egress_price_per_gb * gb
                           : Money::zero();
  return cloud_.objective().scalarize(t, Energy::zero(), egress);
}

double MultiCostModel::evaluate(const MultiPartition& p) const {
  NTCO_EXPECTS(p.site.size() == graph().component_count());
  NTCO_EXPECTS(p.respects_pins(graph()));
  double total = 0.0;
  for (app::ComponentId id = 0; id < graph().component_count(); ++id)
    total += site_cost(id, p.site[id]);
  for (std::size_t fi = 0; fi < graph().flow_count(); ++fi) {
    const auto& f = graph().flow(fi);
    total += transfer_cost(fi, p.site[f.from], p.site[f.to]);
  }
  return total;
}

namespace {

std::vector<app::ComponentId> free_components(const app::TaskGraph& g) {
  std::vector<app::ComponentId> out;
  for (app::ComponentId id = 0; id < g.component_count(); ++id)
    if (!g.component(id).pinned_local) out.push_back(id);
  return out;
}

}  // namespace

MultiPartition MultiExhaustivePartitioner::plan(
    const MultiCostModel& m) const {
  const auto& g = m.graph();
  const auto free = free_components(g);
  if (free.size() > kMaxFree)
    throw ConfigError("exhaustive-3 limited to " + std::to_string(kMaxFree) +
                      " free components, got " + std::to_string(free.size()));

  MultiPartition best = MultiPartition::all_device(g.component_count());
  double best_value = m.evaluate(best);
  MultiPartition candidate = best;

  std::uint64_t combos = 1;
  for (std::size_t i = 0; i < free.size(); ++i) combos *= 3;
  for (std::uint64_t code = 1; code < combos; ++code) {
    std::uint64_t c = code;
    for (std::size_t i = 0; i < free.size(); ++i) {
      candidate.site[free[i]] = static_cast<Site>(c % 3);
      c /= 3;
    }
    const double value = m.evaluate(candidate);
    if (value < best_value) {
      best_value = value;
      best = candidate;
    }
  }
  return best;
}

MultiPartition AlphaExpansionPartitioner::plan(const MultiCostModel& m) const {
  const auto& g = m.graph();
  const std::size_t n = g.component_count();
  MultiPartition labels = MultiPartition::all_device(n);
  double current = m.evaluate(labels);

  // One alpha-expansion: every component simultaneously decides whether to
  // switch to `alpha`, via a binary min cut (BVZ construction). Node in the
  // source side S takes alpha; node in T keeps its current label.
  const auto expand = [&](Site alpha) -> bool {
    const std::size_t source = n, sink = n + 1;
    constexpr double kInf = std::numeric_limits<double>::infinity();
    MaxFlow flow(n + 2);
    flow.reserve(g.flow_count() + 2 * n);  // upper bound on the arcs below

    // Accumulated t-link capacities per node (built up by unary terms from
    // both the data costs and the pairwise decomposition).
    std::vector<double> cap_keep(n, 0.0);  // arc s->v, paid when v keeps
    std::vector<double> cap_alpha(n, 0.0); // arc v->t, paid when v takes α

    for (app::ComponentId v = 0; v < n; ++v) {
      if (g.component(v).pinned_local && alpha != Site::Device) {
        // Forbid taking alpha: v must stay on the sink ("keep") side, so
        // the v->t arc (cut exactly when v would take alpha) is infinite.
        cap_alpha[v] = kInf;
        continue;
      }
      cap_keep[v] += m.site_cost(v, labels.site[v]);
      cap_alpha[v] += m.site_cost(v, alpha);
    }

    // Unary helper: add `w` paid when x=1 (take alpha); negative weights
    // flip to the other link (constant offsets do not change the argmin).
    const auto add_when_alpha = [&](app::ComponentId v, double w) {
      if (w >= 0.0)
        cap_alpha[v] += w;
      else
        cap_keep[v] += -w;
    };

    for (std::size_t fi = 0; fi < g.flow_count(); ++fi) {
      const auto& f = g.flow(fi);
      const Site fp = labels.site[f.from], fq = labels.site[f.to];
      const double b00 = m.transfer_cost(fi, fp, fq);    // both keep
      const double b01 = m.transfer_cost(fi, fp, alpha); // q takes alpha
      const double b10 = m.transfer_cost(fi, alpha, fq); // p takes alpha
      // b11 = V(alpha, alpha) = 0.
      // Decomposition: B = b00 + xp(b10-b00) + xq(0-b10) + x̄p xq M,
      // with M = b01 + b10 - b00 (truncated at 0 if the triangle
      // inequality fails, keeping the move non-worsening).
      add_when_alpha(f.from, b10 - b00);
      add_when_alpha(f.to, -b10);
      const double coupling = std::max(0.0, b01 + b10 - b00);
      if (coupling > 0.0)
        // Paid when p keeps (p in T) and q takes alpha (q in S): the arc
        // q->p is cut exactly then.
        flow.add_arc(f.to, f.from, coupling);
    }

    for (app::ComponentId v = 0; v < n; ++v) {
      if (cap_keep[v] > 0.0) flow.add_arc(source, v, cap_keep[v]);
      if (cap_alpha[v] > 0.0) flow.add_arc(v, sink, cap_alpha[v]);
    }

    (void)flow.solve(source, sink);
    const auto alpha_side = flow.min_cut_source_side(source);

    MultiPartition moved = labels;
    for (app::ComponentId v = 0; v < n; ++v)
      if (alpha_side[v]) moved.site[v] = alpha;
    if (!moved.respects_pins(g)) return false;  // defensive; cannot happen
    const double value = m.evaluate(moved);
    if (value < current - 1e-12) {
      labels = std::move(moved);
      current = value;
      return true;
    }
    return false;
  };

  for (std::size_t sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool improved = false;
    for (const auto alpha : kAllSites) improved |= expand(alpha);
    if (!improved) break;
  }
  NTCO_ENSURES(labels.respects_pins(g));
  return labels;
}

}  // namespace ntco::partition
