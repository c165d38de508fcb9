#include "ntco/partition/partitioners.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ntco/app/task_graph.hpp"
#include "ntco/common/error.hpp"

namespace ntco::partition {

namespace {

/// Ids of components that may be offloaded.
std::vector<app::ComponentId> free_components(const app::TaskGraph& g) {
  std::vector<app::ComponentId> out;
  out.reserve(g.component_count());
  for (app::ComponentId id = 0; id < g.component_count(); ++id)
    if (!g.component(id).pinned_local) out.push_back(id);
  return out;
}

}  // namespace

Partition LocalOnlyPartitioner::plan(const CostModel& model) const {
  return Partition::all_local(model.graph().component_count());
}

Partition RemoteAllPartitioner::plan(const CostModel& model) const {
  const auto& g = model.graph();
  Partition p = Partition::all_local(g.component_count());
  for (const auto id : free_components(g))
    p.placement[id] = Placement::Remote;
  return p;
}

RandomPartitioner::RandomPartitioner(double p_remote, Rng rng)
    : p_remote_(p_remote), rng_(rng) {
  NTCO_EXPECTS(p_remote >= 0.0 && p_remote <= 1.0);
}

Partition RandomPartitioner::plan(const CostModel& model) const {
  const auto& g = model.graph();
  Partition p = Partition::all_local(g.component_count());
  for (const auto id : free_components(g))
    if (rng_.bernoulli(p_remote_)) p.placement[id] = Placement::Remote;
  return p;
}

Partition GreedyPartitioner::plan(const CostModel& model) const {
  const auto& g = model.graph();
  const auto free = free_components(g);
  Partition p = Partition::all_local(g.component_count());
  double current = model.evaluate(p);

  for (;;) {
    double best = current;
    app::ComponentId best_id = 0;
    bool found = false;
    for (const auto id : free) {
      Partition candidate = p;
      candidate.placement[id] = p.is_remote(id) ? Placement::Local
                                                : Placement::Remote;
      const double value = model.evaluate(candidate);
      if (value < best - 1e-12) {
        best = value;
        best_id = id;
        found = true;
      }
    }
    if (!found) break;
    p.placement[best_id] =
        p.is_remote(best_id) ? Placement::Local : Placement::Remote;
    current = best;
  }
  return p;
}

AnnealingPartitioner::AnnealingPartitioner(Params params, Rng rng)
    : params_(params), rng_(rng) {
  NTCO_EXPECTS(params.iterations > 0);
}

Partition AnnealingPartitioner::plan(const CostModel& model) const {
  const auto& g = model.graph();
  const auto free = free_components(g);
  Partition current = Partition::all_local(g.component_count());
  if (free.empty()) return current;

  double current_value = model.evaluate(current);
  Partition best = current;
  double best_value = current_value;
  // Temperature is relative to the all-local objective so the schedule is
  // scale-free across workloads.
  double temperature = kInitialTemperature * std::max(current_value, 1e-9);

  // Each move flips one component of `current` in place and flips it back
  // if rejected, so an iteration copies a partition only when it improves
  // on the best (into `best`'s existing buffer).
  const auto flip = [&current](app::ComponentId id) {
    current.placement[id] =
        current.is_remote(id) ? Placement::Local : Placement::Remote;
  };
  for (std::size_t it = 0; it < params_.iterations; ++it) {
    const auto id = free[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(free.size()) - 1))];
    flip(id);
    const double value = model.evaluate(current);
    const double delta = value - current_value;
    if (delta <= 0.0 ||
        rng_.bernoulli(std::exp(-delta / std::max(temperature, 1e-12)))) {
      current_value = value;
      if (current_value < best_value) {
        best = current;
        best_value = current_value;
      }
    } else {
      flip(id);
    }
    temperature *= kCooling;
  }
  return best;
}

Partition ExhaustivePartitioner::plan(const CostModel& model) const {
  const auto& g = model.graph();
  const auto free = free_components(g);
  if (free.size() > kMaxFree)
    throw ConfigError("exhaustive partitioner limited to " +
                      std::to_string(kMaxFree) + " free components, got " +
                      std::to_string(free.size()));

  Partition best = Partition::all_local(g.component_count());
  double best_value = model.evaluate(best);
  Partition candidate = best;
  const std::uint64_t combos = 1ULL << free.size();
  for (std::uint64_t mask = 1; mask < combos; ++mask) {
    for (std::size_t i = 0; i < free.size(); ++i)
      candidate.placement[free[i]] =
          (mask >> i) & 1 ? Placement::Remote : Placement::Local;
    const double value = model.evaluate(candidate);
    if (value < best_value) {
      best_value = value;
      best = candidate;
    }
  }
  return best;
}

Partition MinCutPartitioner::plan(const CostModel& model) const {
  const auto& g = model.graph();
  const std::size_t n = g.component_count();
  const std::size_t source = n;      // device side
  const std::size_t sink = n + 1;    // cloud side
  constexpr double kInf = std::numeric_limits<double>::infinity();

  flow_.reset(n + 2);
  flow_.reserve(2 * n + 2 * g.flow_count());
  for (app::ComponentId id = 0; id < n; ++id) {
    // Arc s->v is cut exactly when v is on the sink (remote) side.
    double to_remote =
        g.component(id).pinned_local ? kInf : model.remote_cost(id);
    // Arc v->t is cut exactly when v is on the source (local) side.
    double to_local = model.local_cost(id);
    // Dinic's first phase, applied (see the class comment).
    const double pushed = std::min(to_remote, to_local);
    if (to_remote > MaxFlow::kEps && to_local > MaxFlow::kEps &&
        std::isfinite(pushed)) {
      to_remote -= pushed;
      to_local -= pushed;
    }
    flow_.add_arc(source, id, to_remote);
    flow_.add_arc(id, sink, to_local);
  }
  for (std::size_t fi = 0; fi < g.flow_count(); ++fi) {
    const auto& f = g.flow(fi);
    flow_.add_arc(f.from, f.to, model.upload_cost(fi));
    flow_.add_arc(f.to, f.from, model.download_cost(fi));
  }

  (void)flow_.solve(source, sink);
  Partition p;
  p.placement.reserve(n);
  for (app::ComponentId id = 0; id < n; ++id)
    p.placement.push_back(flow_.in_source_side(id) ? Placement::Local
                                                   : Placement::Remote);
  NTCO_ENSURES(p.respects_pins(g));
  return p;
}

std::vector<std::unique_ptr<Partitioner>> standard_portfolio(
    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::unique_ptr<Partitioner>> out;
  out.push_back(std::make_unique<LocalOnlyPartitioner>());
  out.push_back(std::make_unique<RemoteAllPartitioner>());
  out.push_back(std::make_unique<RandomPartitioner>(0.5, rng.fork(1)));
  out.push_back(std::make_unique<GreedyPartitioner>());
  out.push_back(std::make_unique<AnnealingPartitioner>(
      AnnealingPartitioner::Params{}, rng.fork(2)));
  out.push_back(std::make_unique<MinCutPartitioner>());
  return out;
}

}  // namespace ntco::partition
