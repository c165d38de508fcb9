// Quickstart: offload one non-time-critical application to the serverless
// cloud and compare against running it entirely on the phone.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "ntco/app/workloads.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/net/path.hpp"

using namespace ntco;

int main() {
  // 1. A simulated world: one event loop, one serverless region, one
  //    budget phone on a 4G uplink.
  sim::Simulator sim;
  serverless::Platform cloud(sim, serverless::PlatformConfig{});
  device::Device phone(device::budget_phone());
  auto path = net::make_fixed_path(net::profile_4g());

  // 2. The offloading controller ties them together. The default objective
  //    is the non-time-critical blend (money-dominant).
  core::OffloadController controller(sim, cloud, phone, path,
                                     core::ControllerConfig{});

  // Optional observability: a trace sink sees every simulator event and
  // every platform/controller span; a registry aggregates the stable
  // summaries as they happen and takes the counters from each layer's
  // stats on publish() (names in DESIGN.md, "Observability"). Detach by
  // not attaching.
  obs::JsonlTraceWriter trace;
  obs::MetricsRegistry metrics;
  sim.set_trace_sink(&trace);
  cloud.attach_observer(&trace, &metrics);
  controller.attach_observer(&trace, &metrics);

  // 3. The application: overnight photo backup with OCR + face indexing.
  const app::TaskGraph photo = app::workloads::photo_backup();
  std::printf("app: %s (%zu components, %zu flows, %s of work)\n",
              photo.name().c_str(), photo.component_count(),
              photo.flow_count(), to_string(photo.total_work()).c_str());

  // 4. Plan with the exact min-cut partitioner and execute end to end.
  const partition::MinCutPartitioner mincut;
  const auto plan = controller.prepare(photo, mincut);
  std::printf("partition: %s (%zu of %zu components offloaded)\n",
              plan.partition.to_string().c_str(),
              plan.partition.remote_count(), photo.component_count());

  const auto offloaded = controller.execute(plan, photo);

  // 5. Baseline: the same app entirely on the phone.
  const partition::LocalOnlyPartitioner local;
  const auto local_plan = controller.prepare(photo, local);
  const auto on_device = controller.execute(local_plan, photo);

  std::printf("\n%-16s %14s %14s %14s\n", "", "makespan", "UE energy",
              "cloud cost");
  std::printf("%-16s %14s %14s %14s\n", "on-device",
              to_string(on_device.makespan).c_str(),
              to_string(on_device.device_energy).c_str(),
              to_string(on_device.cloud_cost).c_str());
  std::printf("%-16s %14s %14s %14s\n", "offloaded",
              to_string(offloaded.makespan).c_str(),
              to_string(offloaded.device_energy).c_str(),
              to_string(offloaded.cloud_cost).c_str());
  std::printf("\nspeedup %.2fx, battery saved %.1f%%, for %s per run\n",
              on_device.makespan / offloaded.makespan,
              (1.0 - offloaded.device_energy.to_joules() /
                         on_device.device_energy.to_joules()) *
                  100.0,
              to_string(offloaded.cloud_cost).c_str());

  // 6. The run left a full audit trail behind: publish the counters, then
  //    write trace.str() (JSONL) and metrics.to_csv() to files for offline
  //    analysis.
  cloud.publish(metrics);
  controller.publish(metrics);
  std::printf("\ntrace: %zu records; metrics: %zu instruments\n",
              trace.record_count(), metrics.size());
  return 0;
}
