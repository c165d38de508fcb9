// A city of phones: one broker serving a whole population of
// non-time-critical users through the plan cache, admission control, and
// batch dispatch.
//
// 500 phones release one job each in a two-minute evening burst at 20:00.
// Most users tolerate hours of delay; the broker plans each decision
// context once, defers the burst down to its sustained planning rate, and
// flushes batched executions into the 22:00 off-peak tariff window.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/broker_serving

#include <cmath>
#include <cstdio>
#include <vector>

#include "ntco/app/workloads.hpp"
#include "ntco/broker/broker.hpp"
#include "ntco/common/rng.hpp"
#include "ntco/net/path.hpp"

using namespace ntco;

int main() {
  // 1. The world: a serverless region with an overnight discount, one
  //    budget phone archetype, a WiFi path shared by the population.
  sim::Simulator sim;
  serverless::PlatformConfig pcfg;
  pcfg.price_windows = {{22, 6, 0.55}};  // 22:00-06:00 at 55% of peak
  serverless::Platform cloud(sim, pcfg);
  device::Device phone(device::budget_phone());
  auto path = net::make_fixed_path(net::profile_wifi());
  core::OffloadController controller(sim, cloud, phone, path, {});

  // 2. The broker in front of it. Admission sustains 2 decisions/s with a
  //    small burst: the evening spike defers instead of overwhelming the
  //    planner, and jobs batch toward the cheap window.
  broker::BrokerConfig bcfg;
  bcfg.admission.rate_per_second = 2.0;
  bcfg.admission.burst = 4.0;
  bcfg.admission.min_defer = Duration::seconds(5);
  const partition::MinCutPartitioner mincut;
  broker::Broker b(sim, cloud, controller, mincut, bcfg);

  // 3. The population: 500 users, mixed workloads, spread link quality and
  //    battery, released within a two-minute burst at 20:00.
  const auto graphs = app::workloads::all();
  Rng rng(2026);
  const TimePoint evening = TimePoint::at(Duration::hours(20));
  const int users = 500;
  for (int u = 0; u < users; ++u) {
    const auto wl = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(graphs.size()) - 1));
    const Duration offset = Duration::minutes(2) * rng.uniform(0.0, 1.0);
    const double battery = rng.uniform(0.05, 1.0);
    const double bw = std::exp2(rng.uniform(-2.0, 2.0));
    sim.schedule_at(evening + offset, [&b, &graphs, wl, battery, bw] {
      broker::ServeRequest req;
      req.app = &graphs[wl];
      req.slack = Duration::hours(8);  // overnight is fine
      req.battery = battery;
      req.bandwidth_scale = bw;
      b.serve(req);
    });
  }
  sim.run();

  // 4. What the serving layer did with the burst.
  const auto& cs = b.cache().stats();
  const auto& as = b.admission().stats();
  const auto& bs = b.dispatcher().stats();
  std::printf("served %llu of %llu requests (%llu shed)\n",
              static_cast<unsigned long long>(b.stats().completed),
              static_cast<unsigned long long>(b.stats().requests),
              static_cast<unsigned long long>(b.stats().shed));
  std::printf("plan cache: %.1f%% hit rate (%llu plans computed for %llu "
              "decisions)\n",
              100.0 * cs.hit_rate(),
              static_cast<unsigned long long>(cs.misses),
              static_cast<unsigned long long>(cs.hits + cs.hysteresis_hits +
                                              cs.misses));
  std::printf("admission: %llu deferrals smoothed the burst\n",
              static_cast<unsigned long long>(as.deferrals));
  std::printf("batching: %llu jobs in %llu batches\n",
              static_cast<unsigned long long>(bs.jobs_dispatched),
              static_cast<unsigned long long>(bs.batches));
  std::printf("cloud bill: $%.4f (%llu cold starts) across %d users\n",
              cloud.total_cost().to_usd(),
              static_cast<unsigned long long>(cloud.stats().cold_starts),
              users);
  return 0;
}
