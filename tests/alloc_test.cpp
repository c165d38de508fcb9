#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "ntco/alloc/memory_optimizer.hpp"
#include "ntco/alloc/warm_pool.hpp"
#include "ntco/common/error.hpp"
#include "ntco/common/rng.hpp"
#include "ntco/stats/queueing.hpp"

namespace ntco::alloc {
namespace {

serverless::PlatformConfig provider() {
  serverless::PlatformConfig cfg;
  cfg.core_speed = Frequency::gigahertz(2.5);
  cfg.full_share_memory = DataSize::megabytes(1792);
  cfg.max_vcpus = 6.0;
  return cfg;
}

TEST(MemoryOptimizer, SweepCoversDeployableRange) {
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto curve = opt.sweep(Cycles::giga(10), DataSize::megabytes(128),
                               /*parallel_fraction=*/1.0,
                               DataSize::megabytes(512));
  ASSERT_FALSE(curve.empty());
  EXPECT_EQ(curve.front().memory, DataSize::megabytes(128));
  EXPECT_LE(curve.back().memory, DataSize::megabytes(10240));
  // Duration decreases monotonically with memory until the vCPU cap.
  for (std::size_t i = 1; i < curve.size(); ++i)
    EXPECT_LE(curve[i].duration, curve[i - 1].duration);
}

TEST(MemoryOptimizer, FloorRespectsWorkingSet) {
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto curve = opt.sweep(Cycles::giga(1), DataSize::megabytes(700));
  EXPECT_GE(curve.front().memory, DataSize::megabytes(700));
}

TEST(MemoryOptimizer, UnconstrainedChoiceIsCostMinimal) {
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto curve = opt.sweep(Cycles::giga(20), DataSize::megabytes(128));
  const auto choice = opt.choose(Cycles::giga(20), DataSize::megabytes(128));
  EXPECT_TRUE(choice.feasible);
  for (const auto& pt : curve)
    EXPECT_LE(choice.chosen.cost, pt.cost);
}

TEST(MemoryOptimizer, DeadlineForcesLargerMemory) {
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto work = Cycles::giga(25);  // 10 s at full share
  const auto lazy = opt.choose(work, DataSize::megabytes(128));
  const auto tight = opt.choose(work, DataSize::megabytes(128), 1.0,
                                Duration::seconds(5));
  EXPECT_TRUE(tight.feasible);
  EXPECT_GE(tight.chosen.memory, lazy.chosen.memory);
  EXPECT_LE(tight.chosen.duration, Duration::seconds(5));
}

TEST(MemoryOptimizer, ImpossibleDeadlineReportsInfeasible) {
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto choice = opt.choose(Cycles::giga(1000), DataSize::megabytes(128), 1.0,
                                 Duration::millis(1));
  EXPECT_FALSE(choice.feasible);
  // Still returns the fastest configuration available.
  EXPECT_GT(choice.chosen.memory, DataSize::megabytes(5000));
}

TEST(MemoryOptimizer, TieBreaksTowardFasterConfiguration) {
  // For a 1 ms-scale job the billing quantum makes several configurations
  // cost-equal; the optimiser must pick the fastest of the cheapest.
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto curve = opt.sweep(Cycles::mega(1), DataSize::megabytes(128));
  const auto choice = opt.choose(Cycles::mega(1), DataSize::megabytes(128));
  for (const auto& pt : curve) {
    EXPECT_LE(choice.chosen.cost, pt.cost);
    if (pt.cost == choice.chosen.cost) {
      EXPECT_LE(choice.chosen.duration, pt.duration);
    }
  }
}

TEST(MemoryOptimizer, AmdahlLimitedFunctionHasInteriorCostOptimum) {
  // With limited parallelism, memory beyond one vCPU buys little speed but
  // full price: the cost curve has a strict interior minimum well below
  // the provider maximum, which is the whole point of allocation (T3).
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  const auto work = Cycles::giga(100);
  const auto choice = opt.choose(work, DataSize::megabytes(128),
                                 /*parallel_fraction=*/0.5);
  EXPECT_TRUE(choice.feasible);
  EXPECT_LT(choice.chosen.memory, DataSize::megabytes(10240));
  // The top-of-range configuration is strictly more expensive.
  const auto curve = opt.sweep(work, DataSize::megabytes(128), 0.5);
  EXPECT_GT(curve.back().cost, choice.chosen.cost);
  // A serial function gains nothing beyond one vCPU, so durations flatten.
  const auto serial = opt.sweep(work, DataSize::megabytes(1792), 0.0);
  EXPECT_EQ(serial.front().duration, serial.back().duration);
}

TEST(MemoryOptimizer, InvalidStepRejected) {
  sim::Simulator s;
  serverless::Platform p(s, provider());
  const MemoryOptimizer opt(p);
  EXPECT_THROW(
      (void)opt.sweep(Cycles::giga(1), DataSize::megabytes(128), 1.0,
                      DataSize::megabytes(100)),  // not a 64 MB multiple
      ConfigError);
  EXPECT_THROW((void)opt.choose(Cycles::giga(1), DataSize::megabytes(128), 1.0,
                                Duration::max(), DataSize::megabytes(100)),
               ConfigError);
  EXPECT_THROW((void)opt.choose(Cycles::giga(1), DataSize::megabytes(128), 1.0,
                                Duration::max(), DataSize::zero()),
               ConfigError);
}

/// choose() as one pass over every point sweep() returns: the cheapest
/// point within the deadline, ties to the faster one, else the fastest.
MemoryChoice full_scan_choose(const serverless::Platform& platform,
                              Cycles work, DataSize floor, double p,
                              Duration deadline, DataSize step) {
  MemoryPoint best;
  MemoryPoint fastest;
  bool found = false;
  const auto curve = MemoryOptimizer(platform).sweep(work, floor, p, step);
  for (const MemoryPoint& pt : curve) {
    if (&pt == &curve.front() || pt.duration < fastest.duration) fastest = pt;
    if (pt.duration > deadline) continue;
    if (!found || pt.cost < best.cost ||
        (pt.cost == best.cost && pt.duration < best.duration))
      best = pt;
    found = true;
  }
  return found ? MemoryChoice{best, true} : MemoryChoice{fastest, false};
}

/// A value in [lo, hi], uniform in its logarithm.
double log_uniform(Rng& rng, double lo, double hi) {
  return std::exp(rng.uniform(std::log(lo), std::log(hi)));
}

TEST(MemoryOptimizer, ChooseMatchesTheFullScan) {
  // Random providers (core speed, full-share memory, vCPU cap, quantum,
  // memory range, prices with zeros, billing quanta of 1 µs to 200 ms,
  // price windows), parallel fractions across [0, 1] with both ends, and
  // deadlines from zero through the curve's own durations to
  // Duration::max().
  sim::Simulator s;
  std::size_t infeasible = 0;
  std::size_t unconstrained = 0;
  for (std::uint64_t seed = 1; seed <= 20'000; ++seed) {
    Rng rng(seed);
    serverless::PlatformConfig cfg;
    cfg.core_speed = Frequency::hertz(
        static_cast<std::uint64_t>(log_uniform(rng, 1e6, 1e10)));
    cfg.full_share_memory = DataSize::megabytes(
        static_cast<std::uint64_t>(rng.uniform_int(256, 4096)));
    cfg.max_vcpus = rng.bernoulli(0.1) ? rng.uniform(0.25, 1.0)
                                       : rng.uniform(1.0, 8.0);
    constexpr std::uint64_t kQuantaMb[] = {1, 16, 64, 128};
    cfg.memory_quantum = DataSize::megabytes(
        kQuantaMb[static_cast<std::size_t>(rng.uniform_int(0, 3))]);
    const std::uint64_t quantum = cfg.memory_quantum.count_bytes();
    cfg.min_memory = DataSize::bytes(
        quantum * static_cast<std::uint64_t>(rng.uniform_int(1, 8)));
    cfg.max_memory = cfg.min_memory + DataSize::megabytes(
        static_cast<std::uint64_t>(rng.uniform_int(0, 10'240)));
    const auto price = [&rng](double hi) {
      return rng.bernoulli(0.1) ? Money::zero()
                                : Money::nano_usd(static_cast<std::int64_t>(
                                      log_uniform(rng, 1.0, hi)));
    };
    cfg.price_per_gb_second = price(1e6);
    cfg.price_per_request = price(1e4);
    cfg.billing_quantum = Duration::micros(
        static_cast<std::int64_t>(log_uniform(rng, 1.0, 200'000.0)));
    for (auto w = rng.uniform_int(0, 2); w > 0; --w)
      cfg.price_windows.push_back(
          {static_cast<int>(rng.uniform_int(0, 23)),
           static_cast<int>(rng.uniform_int(0, 24)), rng.uniform(0.1, 3.0)});
    const serverless::Platform platform(s, cfg);

    const Cycles work = rng.bernoulli(0.02)
                            ? Cycles::zero()
                            : Cycles::count(static_cast<std::uint64_t>(
                                  log_uniform(rng, 1e3, 1e12)));
    const DataSize floor = DataSize::bytes(static_cast<std::uint64_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(
                               cfg.max_memory.count_bytes()))));
    const double r = rng.uniform(0.0, 1.0);
    const double p = r < 0.1 ? 0.0 : r < 0.2 ? 1.0 : rng.uniform(0.0, 1.0);
    // A step 1-4 quanta above the least that keeps the curve within ~160
    // points.
    const std::uint64_t span =
        cfg.max_memory.count_bytes() - cfg.min_memory.count_bytes();
    const DataSize step = DataSize::bytes(
        quantum * (span / (160 * quantum) +
                   static_cast<std::uint64_t>(rng.uniform_int(1, 4))));

    // A deadline at zero, at Duration::max(), at a point's own duration,
    // one µs either side of it, or anywhere in the curve's range.
    const auto curve = MemoryOptimizer(platform).sweep(work, floor, p, step);
    const Duration at = curve[static_cast<std::size_t>(rng.uniform_int(
                                  0, static_cast<std::int64_t>(curve.size()) -
                                         1))]
                            .duration;
    Duration deadline;
    switch (rng.uniform_int(0, 5)) {
      case 0: deadline = Duration::zero(); break;
      case 1: deadline = Duration::max(); break;
      case 2: deadline = at; break;
      case 3: deadline = at - Duration::micros(1); break;
      case 4: deadline = at + Duration::micros(1); break;
      default:
        deadline = Duration::micros(rng.uniform_int(
            curve.back().duration.count_micros(),
            curve.front().duration.count_micros()));
    }

    const MemoryChoice want =
        full_scan_choose(platform, work, floor, p, deadline, step);
    const MemoryChoice got =
        MemoryOptimizer(platform).choose(work, floor, p, deadline, step);
    ASSERT_EQ(got.feasible, want.feasible) << "seed " << seed;
    ASSERT_EQ(got.chosen.memory, want.chosen.memory) << "seed " << seed;
    ASSERT_EQ(got.chosen.duration, want.chosen.duration) << "seed " << seed;
    ASSERT_EQ(got.chosen.cost, want.chosen.cost) << "seed " << seed;
    if (!want.feasible) ++infeasible;
    if (deadline == Duration::max()) ++unconstrained;
  }
  EXPECT_GT(infeasible, 1'000u);
  EXPECT_GT(unconstrained, 1'000u);
}

TEST(ErlangB, KnownValues) {
  // B(0, a) = 1 for any load.
  EXPECT_DOUBLE_EQ(stats::erlang_b(0, 3.0), 1.0);
  // B(1, 1) = 1/2, B(2, 1) = 1/5 (textbook values).
  EXPECT_NEAR(stats::erlang_b(1, 1.0), 0.5, 1e-12);
  EXPECT_NEAR(stats::erlang_b(2, 1.0), 0.2, 1e-12);
  // Zero load never blocks (with at least one server).
  EXPECT_DOUBLE_EQ(stats::erlang_b(4, 0.0), 0.0);
}

TEST(ErlangB, MonotoneInServersAndLoad) {
  for (std::size_t n = 1; n < 20; ++n)
    EXPECT_LT(stats::erlang_b(n + 1, 5.0), stats::erlang_b(n, 5.0));
  for (double a = 1.0; a < 10.0; a += 1.0)
    EXPECT_LT(stats::erlang_b(8, a), stats::erlang_b(8, a + 1.0));
}

TEST(WarmPoolPlanner, MeetsTargetWithSmallestPool) {
  WarmPoolPlanner::Inputs in;
  in.arrivals_per_second = 10.0;
  in.service_time = Duration::millis(500);  // offered load 5 Erlangs
  in.target_cold_rate = 0.01;
  const auto plan = WarmPoolPlanner::plan(in);
  EXPECT_GT(plan.instances, 5u);  // must exceed the offered load
  EXPECT_LE(plan.predicted_cold_rate, 0.01);
  // One fewer instance would miss the target (minimality).
  EXPECT_GT(stats::erlang_b(plan.instances - 1, 5.0), 0.01);
}

TEST(WarmPoolPlanner, ZeroLoadNeedsNoPool) {
  WarmPoolPlanner::Inputs in;
  in.arrivals_per_second = 0.0;
  const auto plan = WarmPoolPlanner::plan(in);
  EXPECT_EQ(plan.instances, 0u);
  EXPECT_TRUE(plan.standing_cost_per_hour.is_zero());
}

TEST(WarmPoolPlanner, StandingCostScalesWithPoolAndMemory) {
  WarmPoolPlanner::Inputs in;
  in.arrivals_per_second = 20.0;
  in.service_time = Duration::seconds(1);
  in.memory = DataSize::gigabytes(1);
  in.provisioned_price_per_gb_second = Money::nano_usd(4'167);
  const auto plan = WarmPoolPlanner::plan(in);
  const double expected_per_hour =
      4'167e-9 * static_cast<double>(plan.instances) * 3600.0;
  EXPECT_NEAR(plan.standing_cost_per_hour.to_usd(), expected_per_hour, 1e-6);
}

TEST(WarmPoolPlanner, CapsAtMaxInstances) {
  WarmPoolPlanner::Inputs in;
  in.arrivals_per_second = 1000.0;
  in.service_time = Duration::seconds(1);
  in.target_cold_rate = 0.0001;
  in.max_instances = 10;  // far too few for 1000 Erlangs
  const auto plan = WarmPoolPlanner::plan(in);
  EXPECT_EQ(plan.instances, 10u);
  EXPECT_GT(plan.predicted_cold_rate, 0.9);
}

TEST(WarmPoolPlanner, InvalidInputsRejected) {
  WarmPoolPlanner::Inputs in;
  in.target_cold_rate = 0.0;
  EXPECT_THROW((void)WarmPoolPlanner::plan(in), ContractViolation);
}

}  // namespace
}  // namespace ntco::alloc
