#include "ntco/app/generators.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace ntco::app {

namespace {

/// Log-normal draw with the requested mean and coefficient of variation,
/// floored at 1 unit so no component/flow degenerates to nothing.
double dispersed(double mean, double cv, Rng& rng) {
  if (cv <= 0.0) return mean;
  const double sigma2 = std::log(1.0 + cv * cv);
  const double mu = std::log(mean) - sigma2 / 2.0;
  return std::max(1.0, rng.lognormal(mu, std::sqrt(sigma2)));
}

Cycles draw_work(const GeneratorParams& p, Rng& rng) {
  return Cycles::count(static_cast<std::uint64_t>(
      dispersed(static_cast<double>(p.mean_work.value()), kGeneratedWorkCv,
                rng)));
}

DataSize draw_flow(const GeneratorParams& p, Rng& rng) {
  return DataSize::bytes(static_cast<std::uint64_t>(dispersed(
      static_cast<double>(p.mean_flow.count_bytes()), kGeneratedFlowCv, rng)));
}

Component make_component(const std::string& name, const GeneratorParams& p,
                         bool pinned, Rng& rng) {
  return Component{name, draw_work(p, rng), kGeneratedMemory,
                   kGeneratedImage, pinned};
}

}  // namespace

TaskGraph linear_pipeline(const GeneratorParams& p, Rng rng) {
  NTCO_EXPECTS(p.components >= 2);
  TaskGraph g("pipeline-" + std::to_string(p.components));
  for (std::size_t i = 0; i < p.components; ++i) {
    const bool pinned = (i == 0 || i + 1 == p.components);
    (void)g.add_component(
        make_component("stage" + std::to_string(i), p, pinned, rng));
  }
  for (std::size_t i = 0; i + 1 < p.components; ++i)
    g.add_flow(static_cast<ComponentId>(i), static_cast<ComponentId>(i + 1),
               draw_flow(p, rng));
  return g;
}

TaskGraph fan_out_fan_in(std::size_t width, const GeneratorParams& p,
                         Rng rng) {
  NTCO_EXPECTS(width >= 1);
  TaskGraph g("fanout-" + std::to_string(width));
  const auto split = g.add_component(make_component("split", p, true, rng));
  std::vector<ComponentId> workers;
  workers.reserve(width);
  for (std::size_t i = 0; i < width; ++i)
    workers.push_back(g.add_component(
        make_component("worker" + std::to_string(i), p, false, rng)));
  const auto join = g.add_component(make_component("join", p, true, rng));
  for (const auto w : workers) {
    g.add_flow(split, w, draw_flow(p, rng));
    g.add_flow(w, join, draw_flow(p, rng));
  }
  return g;
}

TaskGraph layered_random(std::size_t layers, const GeneratorParams& p,
                         Rng rng) {
  NTCO_EXPECTS(layers >= 2);
  NTCO_EXPECTS(p.components >= layers);
  TaskGraph g("layered-" + std::to_string(layers) + "x" +
              std::to_string(p.components));

  // Spread components over layers: every layer gets at least one.
  std::vector<std::size_t> layer_of(p.components);
  for (std::size_t i = 0; i < layers; ++i) layer_of[i] = i;
  for (std::size_t i = layers; i < p.components; ++i)
    layer_of[i] = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(layers) - 1));
  std::sort(layer_of.begin(), layer_of.end());

  std::vector<std::vector<ComponentId>> by_layer(layers);
  for (std::size_t i = 0; i < p.components; ++i) {
    const bool pinned =
        layer_of[i] == 0 ? true : rng.bernoulli(p.pin_fraction / 2.0);
    const auto id = g.add_component(
        make_component("c" + std::to_string(i), p, pinned, rng));
    by_layer[layer_of[i]].push_back(id);
  }

  // Every component beyond layer 0 gets >=1 predecessor in the previous
  // layer, plus extra edges with decaying probability.
  for (std::size_t l = 1; l < layers; ++l) {
    for (const auto v : by_layer[l]) {
      const auto& prev = by_layer[l - 1];
      const auto first = prev[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(prev.size()) - 1))];
      g.add_flow(first, v, draw_flow(p, rng));
      for (const auto u : prev)
        if (u != first && rng.bernoulli(0.25))
          g.add_flow(u, v, draw_flow(p, rng));
    }
  }
  return g;
}

}  // namespace ntco::app
