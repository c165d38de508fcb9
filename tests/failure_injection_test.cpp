// Failure injection: flaky links, controller retries, local fallback, and
// stranded-download run failures.

#include <gtest/gtest.h>

#include "ntco/app/workloads.hpp"
#include "ntco/common/error.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/net/flaky_link.hpp"
#include "ntco/net/path.hpp"

namespace ntco {
namespace {

/// Path whose uplink/downlink fail with the given probabilities.
net::NetworkPath flaky_path(double up_fail, double down_fail,
                            std::uint64_t seed) {
  const auto p = net::profile_wifi();
  return net::NetworkPath(
      "flaky-wifi",
      std::make_unique<net::FlakyLink>(
          std::make_unique<net::FixedLink>(p.one_way_latency, p.uplink),
          up_fail, Duration::seconds(2), Rng(seed)),
      std::make_unique<net::FlakyLink>(
          std::make_unique<net::FixedLink>(p.one_way_latency, p.downlink),
          down_fail, Duration::seconds(2), Rng(seed + 1)));
}

struct Fixture {
  sim::Simulator sim;
  serverless::Platform platform;
  device::Device ue;
  net::NetworkPath path;
  core::OffloadController controller;

  Fixture(double up_fail, double down_fail, std::uint64_t seed = 7)
      : platform(sim, {}),
        ue(device::budget_phone()),
        path(flaky_path(up_fail, down_fail, seed)),
        controller(sim, platform, ue, path,
                   core::ControllerConfig{partition::Objective::latency()}) {}
};

TEST(FlakyLink, NeverFailsAtRateZero) {
  net::FlakyLink link(
      std::make_unique<net::FixedLink>(Duration::millis(5),
                                       DataRate::megabits_per_second(10)),
      0.0, Duration::seconds(1), Rng(1));
  for (int i = 0; i < 100; ++i) {
    const auto a = link.try_transfer(DataSize::kilobytes(100));
    EXPECT_TRUE(a.ok);
  }
  EXPECT_EQ(link.failures(), 0u);
}

TEST(FlakyLink, AlwaysFailsAtRateOne) {
  net::FlakyLink link(
      std::make_unique<net::FixedLink>(Duration::millis(5),
                                       DataRate::megabits_per_second(10)),
      1.0, Duration::seconds(3), Rng(2));
  const auto a = link.try_transfer(DataSize::kilobytes(100));
  EXPECT_FALSE(a.ok);
  EXPECT_EQ(a.elapsed, Duration::seconds(3));  // timeout burned
  EXPECT_EQ(link.failures(), 1u);
}

TEST(FlakyLink, FailureRateIsRespected) {
  net::FlakyLink link(
      std::make_unique<net::FixedLink>(Duration::millis(5),
                                       DataRate::megabits_per_second(10)),
      0.25, Duration::seconds(1), Rng(3));
  int failures = 0;
  for (int i = 0; i < 4000; ++i)
    if (!link.try_transfer(DataSize::bytes(100)).ok) ++failures;
  EXPECT_NEAR(failures / 4000.0, 0.25, 0.03);
}

TEST(FlakyLink, AttemptHelperHandlesPlainLinks) {
  net::FixedLink plain(Duration::millis(5),
                       DataRate::megabits_per_second(10));
  const auto a = net::attempt_transfer(plain, DataSize::kilobytes(10));
  EXPECT_TRUE(a.ok);
  EXPECT_GT(a.elapsed, Duration::zero());
}

TEST(FlakyLink, InvalidConstructionThrows) {
  EXPECT_THROW(net::FlakyLink(nullptr, 0.1, Duration::seconds(1), Rng(1)),
               ContractViolation);
  EXPECT_THROW(net::FlakyLink(std::make_unique<net::FixedLink>(
                                  Duration::millis(1),
                                  DataRate::megabits_per_second(1)),
                              1.5, Duration::seconds(1), Rng(1)),
               ContractViolation);
}

TEST(FailureInjection, ReliablePathReportsNoFailures) {
  Fixture fx(0.0, 0.0);
  const auto g = app::workloads::ml_batch_training();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  const auto r = fx.controller.execute(plan, g);
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.transfer_failures, 0u);
  EXPECT_EQ(r.local_fallbacks, 0u);
}

TEST(FailureInjection, OccasionalFailuresAreRetriedTransparently) {
  // 20% loss with 2 retries: P(3 consecutive losses) = 0.8%, so most runs
  // complete with retries absorbed into the makespan.
  int completed = 0, with_retries = 0;
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    Fixture fx(0.2, 0.2, 100 + seed);
    const auto g = app::workloads::ml_batch_training();
    const auto plan =
        fx.controller.prepare(g, partition::MinCutPartitioner{});
    const auto r = fx.controller.execute(plan, g);
    if (!r.failed) ++completed;
    if (r.transfer_failures > 0) ++with_retries;
  }
  EXPECT_GE(completed, 16);
  // The ML plan crosses the boundary only a few times per run, but at 20%
  // loss a decent share of runs still exercises the retry path.
  EXPECT_GE(with_retries, 4);
}

TEST(FailureInjection, DeadUplinkFallsBackToLocalExecution) {
  Fixture fx(1.0, 0.0);
  const auto g = app::workloads::ml_batch_training();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  ASSERT_GT(plan.partition.remote_count(), 0u);
  const auto r = fx.controller.execute(plan, g);
  // Every planned-remote component whose upload failed ran on the UE.
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.remote_invocations, 0u);
  EXPECT_GT(r.local_fallbacks, 0u);
  EXPECT_GT(r.transfer_failures, 0u);
  EXPECT_TRUE(r.cloud_cost.is_zero());
  // The run is slower than a clean offload (timeouts + local compute).
  const device::Device ref(device::budget_phone());
  EXPECT_GT(r.makespan, ref.exec_time(g.total_work()));
}

TEST(FailureInjection, DeadDownlinkAbortsTheRun) {
  Fixture fx(0.0, 1.0);
  const auto g = app::workloads::ml_batch_training();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  ASSERT_GT(plan.partition.remote_count(), 0u);
  const auto r = fx.controller.execute(plan, g);
  EXPECT_TRUE(r.failed);
  EXPECT_GT(r.transfer_failures, 0u);
  // Work did run in the cloud before the results were stranded.
  EXPECT_GT(r.remote_invocations, 0u);
}

TEST(FailureInjection, FallbackEnergyIsAccounted) {
  Fixture fx(1.0, 0.0);
  const auto g = app::workloads::photo_backup();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  const auto r = fx.controller.execute(plan, g);
  // All-local compute energy plus the radio energy burned on timeouts.
  const device::Device ref(device::budget_phone());
  Energy local_only;
  for (const auto& c : g.components()) local_only += ref.exec_energy(c.work);
  EXPECT_GT(r.device_energy, local_only);
}

TEST(FailureInjection, DeadUplinkBurnsEveryRetryBeforeEachFallback) {
  Fixture fx(1.0, 0.0);
  const auto g = app::workloads::photo_backup();
  const auto plan = fx.controller.prepare(g, partition::MinCutPartitioner{});
  ASSERT_GT(plan.partition.remote_count(), 0u);
  const auto r = fx.controller.execute(plan, g);
  // Every planned-remote component gives up on its first boundary upload
  // after exactly 1 + kMaxTransferRetries attempts, each waiting out the
  // 2 s timeout, and then runs on the UE; nothing else crosses the radio.
  EXPECT_FALSE(r.failed);
  EXPECT_EQ(r.local_fallbacks, plan.partition.remote_count());
  EXPECT_EQ(r.transfer_failures,
            (1 + core::kMaxTransferRetries) * r.local_fallbacks);
  EXPECT_EQ(r.transfer,
            Duration::seconds(2 * static_cast<std::int64_t>(
                                      r.transfer_failures)));
  EXPECT_EQ(r.makespan, r.transfer + r.local_compute);
}

}  // namespace
}  // namespace ntco
