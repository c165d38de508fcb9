#include "ntco/device/device.hpp"

#include <gtest/gtest.h>

#include "ntco/common/error.hpp"

namespace ntco::device {
namespace {

TEST(Device, ExecTimeFollowsClock) {
  Device d(budget_phone());
  // 1.4 Gcycles at 1.4 GHz = 1 s.
  EXPECT_EQ(d.exec_time(Cycles::mega(1400)), Duration::seconds(1));
}

TEST(Device, FasterDeviceExecutesFaster) {
  Device slow(budget_phone()), fast(flagship_phone());
  const auto work = Cycles::giga(2);
  EXPECT_GT(slow.exec_time(work), fast.exec_time(work));
}

TEST(Device, ExecEnergyIsPowerTimesTime) {
  Device d(budget_phone());
  const auto work = Cycles::mega(1400);  // 1 s on this device
  const auto e = d.exec_energy(work);
  EXPECT_NEAR(e.to_joules(), 1.8, 1e-6);  // 1.8 W * 1 s
}

TEST(Device, RadioAndIdleEnergy) {
  Device d(flagship_phone());
  EXPECT_NEAR(d.tx_energy(Duration::seconds(2)).to_joules(), 2.8, 1e-6);
  EXPECT_NEAR(d.rx_energy(Duration::seconds(1)).to_joules(), 1.0, 1e-6);
  EXPECT_NEAR(d.idle_energy(Duration::seconds(10)).to_joules(), 4.5, 1e-6);
  EXPECT_THROW((void)d.tx_energy(-Duration::seconds(1)), ContractViolation);
}

TEST(Device, OffloadEnergyBreakEven) {
  // The core energy argument: a compute-heavy job saves energy when
  // offloaded, a data-heavy one does not.
  Device d(budget_phone());
  const auto heavy_compute = d.exec_energy(Cycles::giga(10));
  const auto ship_small = d.tx_energy(Duration::seconds(1)) +
                          d.idle_energy(Duration::seconds(2));
  EXPECT_GT(heavy_compute, ship_small);

  const auto light_compute = d.exec_energy(Cycles::mega(50));
  const auto ship_large = d.tx_energy(Duration::seconds(30)) +
                          d.idle_energy(Duration::seconds(5));
  EXPECT_LT(light_compute, ship_large);
}

TEST(Device, PresetsAreSane) {
  for (const auto& spec :
       {budget_phone(), flagship_phone(), iot_node(), laptop()}) {
    EXPECT_FALSE(spec.cpu.is_zero()) << spec.name;
    EXPECT_GT(spec.cpu_active, spec.idle) << spec.name;
    EXPECT_GT(spec.radio_tx, Power::zero()) << spec.name;
  }
  EXPECT_LT(budget_phone().cpu, flagship_phone().cpu);
  EXPECT_LT(iot_node().cpu, budget_phone().cpu);
}

}  // namespace
}  // namespace ntco::device
