// Micro-benchmark (google-benchmark): flow throughput of the shared
// fabric. Covers the admission hot path (arrival + fair-share integration
// + committed-departure insert), lazy departure expiry, and the
// amortisation guard under a standing population of 100k concurrent flows.
// BM_AdmitExpireChurn is the loop tools/ci.sh gates against the checked-in
// BENCH_micro_fabric.json baseline (>10% regression fails).
//
// Its main is micro_main.hpp's: when NTCO_BENCH_OUT names a directory every
// result is mirrored into <dir>/BENCH_micro_fabric.json (same stable schema
// as BENCH_micro_sim.json, parseable with POSIX awk).

#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "micro_main.hpp"
#include "ntco/fabric/fabric.hpp"
#include "ntco/sim/simulator.hpp"

namespace {

using namespace ntco;

/// One segment wide enough that the per-flow access cap always binds, so
/// admission cost — not the share math outcome — is what varies.
struct Bed {
  sim::Simulator sim;
  fabric::Fabric net;
  fabric::SegmentId seg;
  std::unique_ptr<fabric::FabricPath> path;

  Bed() : net(sim) {
    seg = net.add_segment({"lan.up", DataRate::megabits_per_second(100000),
                           Duration::zero()});
    net::PathSpec spec;
    spec.name = "ue";
    spec.up = {DataRate::megabits_per_second(100), Duration::millis(1), 0.0,
               0.0};
    spec.down = spec.up;
    path = net.attach(spec, fabric::Route{{seg}, {seg}});
  }
};

// Pure arrival pressure: admissions against an ever-growing active set.
// Pins the multiset insert + integration cost per flow.
void BM_AdmitFlows(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Bed bed;
    Duration acc;
    for (std::uint64_t i = 0; i < n; ++i)
      acc += bed.path->uplink_time(DataSize::megabytes(1));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_AdmitFlows)->Arg(1024)->Arg(8192);

// The gated loop: admissions interleaved with simulated-time progress, so
// every arrival both re-shares against the standing population and lazily
// expires the flows that drained meanwhile — the mix a population-scale
// experiment (F13) produces.
void BM_AdmitExpireChurn(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    Bed bed;
    Duration acc;
    for (std::uint64_t i = 0; i < n; ++i) {
      const auto at = TimePoint::at(
          Duration::micros(static_cast<std::int64_t>(i) * 500));
      bed.sim.schedule_at(at, [&] {
        acc += bed.path->uplink_time(DataSize::megabytes(1));
      });
    }
    (void)bed.sim.run();
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(bed.net.stats().reshare_events);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_AdmitExpireChurn)->Arg(1024)->Arg(8192);

// Amortisation guard: admissions against a standing population of
// `range(0)` concurrent flows (up to 100k). Cost per admission must stay
// bounded by kMaxReshareSteps, not the population size.
void BM_AdmitUnderStandingLoad(benchmark::State& state) {
  const auto standing = static_cast<std::uint64_t>(state.range(0));
  Bed bed;
  // A standing population that never expires within the measured window.
  for (std::uint64_t i = 0; i < standing; ++i)
    (void)bed.path->uplink_time(DataSize::gigabytes(1));
  Duration acc;
  for (auto _ : state) {
    acc += bed.path->uplink_time(DataSize::megabytes(1));
    benchmark::DoNotOptimize(acc);
  }
  benchmark::DoNotOptimize(bed.net.stats().amortized_tails);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_AdmitUnderStandingLoad)->Arg(1024)->Arg(102400);

// Re-share stepping: each admission walks up to kMaxReshareSteps
// departures of the flows ahead, which bounds the integrator's
// contribution to admission cost. The argument names that cap.
void BM_ReshareStepping(benchmark::State& state) {
  constexpr std::uint64_t kFlows = 512;
  for (auto _ : state) {
    Bed bed;
    Duration acc;
    for (std::uint64_t i = 0; i < kFlows; ++i)
      acc += bed.path->uplink_time(DataSize::megabytes(4));
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(kFlows) *
                          state.iterations());
}
BENCHMARK(BM_ReshareStepping)
    ->Arg(static_cast<std::int64_t>(fabric::kMaxReshareSteps));

}  // namespace

int main(int argc, char** argv) {
  return ntco::bench::micro_main(argc, argv, "micro_fabric");
}
