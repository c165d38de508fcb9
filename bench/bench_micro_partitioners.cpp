// Micro-benchmark (google-benchmark): planning throughput of the
// partitioning algorithms on graphs of increasing size, and of the memory
// sizing every remote component of a plan takes. Partitioning runs inside
// the CI/CD pipeline and at every drift-triggered re-release, so its
// latency bounds how often re-planning is affordable.

#include <benchmark/benchmark.h>

#include <cstdint>

#include "ntco/alloc/memory_optimizer.hpp"
#include "ntco/app/generators.hpp"
#include "ntco/device/device.hpp"
#include "ntco/partition/partitioners.hpp"

namespace {

using namespace ntco;

partition::CostModel make_model(std::size_t components,
                                const app::TaskGraph** keep) {
  static std::vector<std::unique_ptr<app::TaskGraph>> graphs;
  app::GeneratorParams gp;
  gp.components = components;
  graphs.push_back(std::make_unique<app::TaskGraph>(
      app::layered_random(std::max<std::size_t>(2, components / 4), gp,
                          Rng(components))));
  *keep = graphs.back().get();
  partition::Environment env;
  env.device = device::budget_phone();
  return partition::CostModel(**keep, env, partition::Objective::latency());
}

void BM_MinCut(benchmark::State& state) {
  const app::TaskGraph* g = nullptr;
  const auto model = make_model(static_cast<std::size_t>(state.range(0)), &g);
  const partition::MinCutPartitioner algo;
  for (auto _ : state) benchmark::DoNotOptimize(algo.plan(model));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_MinCut)->Range(8, 512)->Complexity();

void BM_Greedy(benchmark::State& state) {
  const app::TaskGraph* g = nullptr;
  const auto model = make_model(static_cast<std::size_t>(state.range(0)), &g);
  const partition::GreedyPartitioner algo;
  for (auto _ : state) benchmark::DoNotOptimize(algo.plan(model));
  state.SetComplexityN(state.range(0));
}
BENCHMARK(BM_Greedy)->Range(8, 128)->Complexity();

void BM_Evaluate(benchmark::State& state) {
  const app::TaskGraph* g = nullptr;
  const auto model = make_model(static_cast<std::size_t>(state.range(0)), &g);
  const auto plan = partition::RemoteAllPartitioner{}.plan(model);
  for (auto _ : state) benchmark::DoNotOptimize(model.evaluate(plan));
}
BENCHMARK(BM_Evaluate)->Range(8, 512);

// One cold sizing decision, as the controller makes it on a sizing-memo
// miss: the default provider, a 256 MB floor, the 128 MB step, and a
// deadline 5% above the work's time at the one-vCPU reference speed. The
// work changes every call, so no two calls share an input. Arg: the
// parallel fraction in per cent.
void BM_MemoryChoose(benchmark::State& state) {
  sim::Simulator sim;
  const serverless::Platform platform(sim, {});
  const alloc::MemoryOptimizer optimizer(platform);
  const double p = static_cast<double>(state.range(0)) / 100.0;
  const Frequency reference =
      platform.config().core_speed *
      platform.cpu_share(DataSize::megabytes(1792));
  std::uint64_t call = 0;
  for (auto _ : state) {
    // 0.1 to 10.1 Gcycles, distinct for a million calls.
    const Cycles work =
        Cycles::count(100'000'000 + (++call * 10'007) % 10'000'000'000);
    benchmark::DoNotOptimize(optimizer.choose(work, DataSize::megabytes(256),
                                              p, work / reference * 1.05));
  }
}
BENCHMARK(BM_MemoryChoose)->Arg(80)->Arg(100);

}  // namespace
