// DVFS governor: table validation, race-to-idle energy accounting, and the
// deadline/energy trade.

#include <gtest/gtest.h>

#include "ntco/common/error.hpp"
#include "ntco/device/dvfs.hpp"

namespace ntco::device {
namespace {

DvfsGovernor governor() {
  return DvfsGovernor(budget_phone(), budget_phone_dvfs());
}

TEST(DvfsTable, ValidationRejectsMalformedLadders) {
  EXPECT_THROW(DvfsTable::validated({}), ConfigError);
  EXPECT_THROW(DvfsTable::validated({{Frequency::hertz(0), Power::watts(1)}}),
               ConfigError);
  // Non-monotone frequency.
  EXPECT_THROW(
      DvfsTable::validated({{Frequency::gigahertz(2.0), Power::watts(3)},
                            {Frequency::gigahertz(1.0), Power::watts(1)}}),
      ConfigError);
  // Power must grow with frequency.
  EXPECT_THROW(
      DvfsTable::validated({{Frequency::gigahertz(1.0), Power::watts(2)},
                            {Frequency::gigahertz(2.0), Power::watts(2)}}),
      ConfigError);
}

TEST(DvfsGovernor, EvaluateAccountsActivePlusIdleTail) {
  const auto gov = governor();
  const auto& slow = gov.table().levels.front();  // 600 MHz / 0.55 W
  // 0.6 Gcycles at 600 MHz = 1 s; 2 s window leaves 1 s idle at 0.35 W.
  const auto c = gov.evaluate(slow, Cycles::mega(600), Duration::seconds(2));
  EXPECT_TRUE(c.feasible);
  EXPECT_EQ(c.exec_time, Duration::seconds(1));
  EXPECT_NEAR(c.energy.to_joules(), 0.55 + 0.35, 1e-6);
}

TEST(DvfsGovernor, SlowerIsMoreEfficientWithLooseDeadlines) {
  // With a generous window, energy per cycle wins: the lowest level that
  // still fits is chosen (cubic power beats linear time).
  const auto gov = governor();
  const auto c = gov.energy_optimal(Cycles::giga(1), Duration::minutes(5));
  EXPECT_TRUE(c.feasible);
  EXPECT_EQ(c.level.freq, Frequency::megahertz(600));
}

TEST(DvfsGovernor, TightDeadlineForcesHigherLevels) {
  const auto gov = governor();
  // 2 Gcycles: 600 MHz needs 3.33 s; a 2 s window needs >= 1 GHz.
  const auto c = gov.energy_optimal(Cycles::giga(2), Duration::seconds(2));
  EXPECT_TRUE(c.feasible);
  EXPECT_GE(c.level.freq, Frequency::megahertz(1400));
  EXPECT_LE(c.exec_time, Duration::seconds(2));
}

TEST(DvfsGovernor, ImpossibleDeadlineReturnsFastestInfeasible) {
  const auto gov = governor();
  const auto c = gov.energy_optimal(Cycles::giga(100), Duration::millis(1));
  EXPECT_FALSE(c.feasible);
  EXPECT_EQ(c.level.freq, Frequency::megahertz(2000));
}

TEST(DvfsGovernor, DvfsTunedBaselineBeatsMaxFrequency) {
  // The honest-baseline property A4 relies on: for a delay-tolerant job,
  // DVFS-tuned local execution uses strictly less energy than racing at
  // the top level.
  const auto gov = governor();
  const auto work = Cycles::giga(10);
  const auto window = Duration::minutes(2);
  const auto tuned = gov.energy_optimal(work, window);
  const auto maxed = gov.evaluate(gov.table().levels.back(), work, window);
  ASSERT_TRUE(tuned.feasible);
  ASSERT_TRUE(maxed.feasible);
  EXPECT_LT(tuned.energy, maxed.energy);
}

TEST(DvfsGovernor, SpecAtReparameterisesTheDevice) {
  const auto gov = governor();
  const auto& boost = gov.table().levels.back();
  const auto spec = gov.spec_at(boost);
  EXPECT_EQ(spec.cpu, Frequency::megahertz(2000));
  EXPECT_EQ(spec.cpu_active, boost.active_power);
  // Unrelated fields are preserved.
  EXPECT_EQ(spec.radio_tx, budget_phone().radio_tx);
  EXPECT_EQ(spec.idle, budget_phone().idle);
  EXPECT_EQ(spec.radio_rx, budget_phone().radio_rx);
}

}  // namespace
}  // namespace ntco::device
