// Scenario: a commuter's phone runs the photo-backup pipeline through a
// full day of changing connectivity (home WiFi -> 4G commute -> office
// WiFi -> ...). Uploads triggered on the commute either go out immediately
// over metered 4G or wait for the office WiFi; either way the offloaded
// stages execute in the serverless cloud through the same controller.
//
// Demonstrates: MobilitySchedule + MobileLink behind the OffloadController,
// UploadPlanner's WiFi-wait policy, end-of-day accounting.

#include <cstdio>

#include "ntco/app/workloads.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/net/mobility.hpp"
#include "ntco/sched/upload_planner.hpp"

using namespace ntco;

namespace {

struct DayResult {
  Money cellular_spend;
  Money cloud_spend;
  Energy battery;
  double mean_completion_min = 0.0;
};

DayResult run_day(sched::UploadPlanner::Policy policy) {
  const auto schedule = net::MobilitySchedule::commuter_day();
  sim::Simulator sim;
  serverless::Platform cloud(sim, {});
  device::Device phone(device::budget_phone());

  // The controller's path follows the mobility schedule.
  net::NetworkPath path(
      "mobile",
      std::make_unique<net::MobileLink>(schedule, true,
                                        [&sim] { return sim.now(); }),
      std::make_unique<net::MobileLink>(schedule, false,
                                        [&sim] { return sim.now(); }));
  core::OffloadController controller(sim, cloud, phone, path, {});

  const auto app = app::workloads::photo_backup();
  const partition::MinCutPartitioner mincut;
  const auto plan = controller.prepare(app, mincut);

  sched::UploadPlanner::Config ucfg;
  ucfg.policy = policy;
  const sched::UploadPlanner planner(schedule, phone.spec(), ucfg);

  DayResult day;
  int completed = 0;
  double completion_min_sum = 0.0;

  // A kernel handler holds at most 48 bytes, so each one below captures
  // the stage it runs and its batch's release time, and the stages
  // capture the day's state by reference.
  const auto finish = [&](TimePoint release, const core::ExecutionReport& r) {
    day.cloud_spend += r.cloud_cost;
    day.battery += r.device_energy;
    // Release-to-finish latency includes any WiFi-wait deferral.
    completion_min_sum += (sim.now() - release).to_seconds() / 60.0;
    ++completed;
  };
  const auto start = [&](TimePoint release) {
    controller.execute_async(
        plan, app, [&finish, release](const core::ExecutionReport& r) {
          finish(release, r);
        });
  };
  const auto upload = [&](TimePoint release) {
    // Plan the (4 MB raw-photo) upload within its slack...
    const auto decision = planner.plan(
        release,
        sched::UploadJob{"batch", DataSize::megabytes(4), Duration::hours(6)});
    day.cellular_spend += decision.data_cost;
    // ...then run the full pipeline at the planned start, over whatever
    // network the schedule provides then.
    sim.schedule_at(decision.start, [&start, release] { start(release); });
  };

  // 16 photo batches through the day (07:00-22:30, every hour), each with
  // 6 h of slack on its boundary upload.
  for (int i = 0; i < 16; ++i) {
    const auto release =
        TimePoint::origin() +
        Duration::from_seconds((7.0 + static_cast<double>(i)) * 3600.0);
    sim.schedule_at(release, [&upload, release] { upload(release); });
  }
  sim.run();
  day.mean_completion_min = completion_min_sum / completed;
  return day;
}

}  // namespace

int main() {
  std::printf("%-16s %14s %14s %12s %16s\n", "policy", "cellular $", "cloud $",
              "battery", "mean runtime");
  for (const auto policy : {sched::UploadPlanner::Policy::Immediate,
                            sched::UploadPlanner::Policy::WaitForFree}) {
    const auto d = run_day(policy);
    std::printf("%-16s %14s %14s %11.1fJ %13.1f min\n",
                policy == sched::UploadPlanner::Policy::Immediate
                    ? "immediate"
                    : "wait-for-wifi",
                to_string(d.cellular_spend).c_str(),
                to_string(d.cloud_spend).c_str(), d.battery.to_joules(),
                d.mean_completion_min);
  }
  std::printf("\nWaiting for WiFi zeroes the metered-data bill and shortens\n"
              "radio time; the cloud bill is identical either way.\n");
  return 0;
}
