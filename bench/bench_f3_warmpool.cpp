// F3 — Cold-start amortisation: latency percentiles and cost versus
// provisioned warm-pool size.
//
// Traffic is bursty — fan-out bursts of 1-10 concurrent invocations
// separated by gaps longer than the keep-alive window — which is exactly
// where serverless cold starts hurt: every burst lands on a cold function.
// Provisioning a pool the size of the typical burst removes the tail
// (p95/p99 collapse to the warm latency) while the standing capacity cost
// grows linearly. Steady high-rate traffic would hide this because
// keep-alive reuse keeps instances warm for free (see A2).

#include "bench_common.hpp"
#include "ntco/alloc/warm_pool.hpp"

using namespace ntco;

int main() {
  bench::ReportWriter report("F3", "Warm pool vs latency tail and cost (bursty)",
                      "cold rate and p95/p99 fall as pool covers the burst "
                      "size; cost rises linearly with the pool");

  const auto kWork = Cycles::giga(1);  // 1.4 s at 512 MB
  const auto kMemory = DataSize::megabytes(512);
  const auto kHorizon = Duration::hours(4);
  const auto kMeanGap = Duration::minutes(6);  // > keep-alive: bursts go cold

  stats::Table t({"pool", "invocations", "cold rate", "p50 (s)", "p95 (s)",
                  "p99 (s)", "total cost ($)"});
  for (const std::size_t pool : {0u, 1u, 2u, 4u, 6u, 8u, 12u}) {
    sim::Simulator sim;
    serverless::PlatformConfig pcfg;
    pcfg.keep_alive = Duration::minutes(2);
    serverless::Platform cloud(sim, pcfg);
    const auto fn = cloud.deploy(
        serverless::FunctionSpec{"worker", kMemory, DataSize::megabytes(60)});
    cloud.set_provisioned_concurrency(fn, pool);

    // One capture instead of three keeps the burst handler inside the
    // kernel's 48-byte inline buffer; a larger one would not compile.
    struct Tally {
      stats::PercentileSample latency;
      std::uint64_t colds = 0;
      std::uint64_t total = 0;
    } tally;
    Rng rng(17);
    TimePoint at = TimePoint::origin();
    for (;;) {
      at = at + Duration::from_seconds(
                    rng.exponential(kMeanGap.to_seconds()));
      if (at.since_origin() > kHorizon) break;
      const auto burst = rng.uniform_int(1, 10);
      sim.schedule_at(at, [&cloud, fn, kWork, burst, &tally] {
        for (std::int64_t i = 0; i < burst; ++i)
          cloud.invoke(fn, kWork,
                       [&](const serverless::InvocationResult& r) {
                         tally.latency.add(
                             (r.finished - r.submitted).to_seconds());
                         if (r.cold_start) ++tally.colds;
                         ++tally.total;
                       });
      });
    }
    sim.run_until(TimePoint::origin() + kHorizon + Duration::minutes(10));

    t.add_row({std::to_string(pool), std::to_string(tally.total),
               stats::cell_pct(static_cast<double>(tally.colds) /
                                   static_cast<double>(tally.total),
                               1),
               stats::cell(tally.latency.median(), 2),
               stats::cell(tally.latency.p95(), 2),
               stats::cell(tally.latency.p99(), 2),
               stats::cell(cloud.total_cost().to_usd(), 4)});
  }
  t.set_title("F3: bursts of 1-10 invocations every ~6 min (exp), 4 h, "
              "512 MB function, 2 min keep-alive");
  report.emit(t);
  return 0;
}
