// Micro-benchmark (google-benchmark): event-loop throughput of the
// simulation kernel. Covers the three hot verbs — schedule, fire, cancel —
// separately and in the mixed schedule-fire-cancel churn that dominates
// timer-heavy simulations (keep-alive expiries, batch flushes, retries).
// BM_ScheduleFireCancel and BM_CancelReschedule/32768 are the loops
// tools/ci.sh gates against the checked-in BENCH_micro_sim.json baseline
// (>10% regression fails). BM_ServeShapedMix is ungated: it times the
// serve path's sparse, far-future event shape.
//
// Its main is micro_main.hpp's: when NTCO_BENCH_OUT names a directory it
// mirrors every result into <dir>/BENCH_micro_sim.json (deterministic field
// order) so the perf trajectory is machine-recorded alongside the
// experiment artifacts.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "micro_main.hpp"
#include "ntco/common/rng.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/sim/simulator.hpp"

namespace {

using namespace ntco;

// Small capture: fits the handler small-buffer, so scheduling never
// allocates for the common [&]-style lambda.
void BM_ScheduleAndRun_Small(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < n; ++i)
      sim.schedule_at(TimePoint::at(Duration::micros(
                          static_cast<std::int64_t>(i))),
                      [&acc] { ++acc; });
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ScheduleAndRun_Small)->Arg(1024)->Arg(8192);

// Same loop with a sink attached: bounds the cost of the tracing hooks
// when observability is actually on (a counting sink, no serialisation).
void BM_ScheduleAndRun_Traced(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    obs::CountingSink sink;
    sim.set_trace_sink(&sink);
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < n; ++i)
      sim.schedule_at(TimePoint::at(Duration::micros(
                          static_cast<std::int64_t>(i))),
                      [&acc] { ++acc; });
    sim.run();
    benchmark::DoNotOptimize(acc);
    benchmark::DoNotOptimize(sink.count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ScheduleAndRun_Traced)->Arg(1024)->Arg(8192);

// The gated loop: per event, one schedule; half the population is then
// cancelled before firing and the rest runs to completion — the mix a
// timer-heavy simulation (keep-alives, retries, batch flushes) produces.
// Items processed counts scheduled events, so items/s compares across
// kernels regardless of the cancel ratio.
void BM_ScheduleFireCancel(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  std::vector<sim::EventId> ids;
  ids.reserve(n);
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t acc = 0;
    ids.clear();
    for (std::uint64_t i = 0; i < n; ++i)
      ids.push_back(sim.schedule_at(
          TimePoint::at(Duration::micros(static_cast<std::int64_t>(i))),
          [&acc] { ++acc; }));
    for (std::uint64_t i = 0; i < n; i += 2) sim.cancel(ids[i]);
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ScheduleFireCancel)->Arg(1024)->Arg(8192);

// Timer churn: a fixed population of pending timeouts, each repeatedly
// cancelled and re-armed (the reset-the-timeout pattern of keep-alive and
// retry timers), then drained. Cancel cost dominates; items counts
// cancel+reschedule pairs. At 32768 rounds a kernel that cancelled lazily
// would carry 128 dead queue entries per live timer, so the gated /32768
// row is the one that shows whether cancel really removes the timer.
void BM_CancelReschedule(benchmark::State& state) {
  constexpr std::uint64_t kTimers = 256;
  const auto rounds = static_cast<std::uint64_t>(state.range(0));
  std::vector<sim::EventId> ids(kTimers);
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t acc = 0;
    std::int64_t t = 1'000'000;
    for (std::uint64_t i = 0; i < kTimers; ++i)
      ids[i] = sim.schedule_at(TimePoint::at(Duration::micros(t + static_cast<std::int64_t>(i))),
                               [&acc] { ++acc; });
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const std::uint64_t i = r % kTimers;
      sim.cancel(ids[i]);
      ++t;
      ids[i] = sim.schedule_at(
          TimePoint::at(Duration::micros(t + static_cast<std::int64_t>(i))),
          [&acc] { ++acc; });
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(rounds) *
                          state.iterations());
}
BENCHMARK(BM_CancelReschedule)->Arg(4096)->Arg(32768);

// Interleaved handler-driven scheduling: every fired event schedules its
// successor (the chain shape the edge platform's FIFO and the serverless
// keep-alive path produce), so schedule and fire alternate instead of
// batching.
void BM_FireChain(benchmark::State& state) {
  const auto n = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fired = 0;
    struct Chain {
      sim::Simulator& sim;
      std::uint64_t& fired;
      std::uint64_t remaining;
      void operator()() {
        ++fired;
        if (remaining > 0)
          sim.schedule_after(Duration::micros(1),
                             Chain{sim, fired, remaining - 1});
      }
    };
    sim.schedule_after(Duration::micros(1), Chain{sim, fired, n - 1});
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_FireChain)->Arg(8192);

// The serve path's shape, which the dense loops above lack: a day of
// arrivals scheduled up front, each followed by a completion 0.1–5 s
// later, and a warm-pool keep-alive that each completion cancels and
// re-arms for 10 minutes, so most timers die long before they are due.
// Times are drawn once, outside the timed loop. Items count arrivals.
void BM_ServeShapedMix(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<std::int64_t> arrival_us(n);
  std::vector<std::int64_t> service_us(n);
  Rng rng(1);
  for (std::size_t i = 0; i < n; ++i) {
    arrival_us[i] = rng.uniform_int(0, Duration::hours(24).count_micros());
    service_us[i] = rng.uniform_int(100'000, 5'000'000);
  }
  std::sort(arrival_us.begin(), arrival_us.end());
  struct Pool {
    sim::Simulator& sim;
    const std::vector<std::int64_t>& service_us;
    sim::EventId keep_alive = sim::kNoEvent;
    std::uint64_t expiries = 0;
    void arrive(std::size_t i) {
      sim.schedule_after(Duration::micros(service_us[i]),
                         [this] { complete(); });
    }
    void complete() {
      sim.cancel(keep_alive);
      keep_alive =
          sim.schedule_after(Duration::minutes(10), [this] { ++expiries; });
    }
  };
  for (auto _ : state) {
    sim::Simulator sim;
    Pool pool{sim, service_us};
    for (std::size_t i = 0; i < n; ++i)
      sim.schedule_at(TimePoint::at(Duration::micros(arrival_us[i])),
                      [&pool, i] { pool.arrive(i); });
    sim.run();
    benchmark::DoNotOptimize(pool.expiries);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_ServeShapedMix)->Arg(4096);

}  // namespace

int main(int argc, char** argv) {
  return ntco::bench::micro_main(argc, argv, "micro_sim");
}
