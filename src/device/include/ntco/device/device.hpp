#pragma once

#include <string>

#include "ntco/common/contracts.hpp"
#include "ntco/common/units.hpp"

/// \file device.hpp
/// User Equipment (UE) model: compute capability and the MAUI-style energy
/// model the partitioners optimise against.
///
///   E = P_cpu · t_compute + P_tx · t_tx + P_rx · t_rx + P_idle · t_wait
///
/// Offloading saves energy exactly when the compute energy avoided exceeds
/// the radio energy spent shipping state plus the idle energy burnt waiting
/// for the result.

namespace ntco::device {

/// Static description of a UE.
struct DeviceSpec {
  std::string name;
  Frequency cpu;      ///< effective single-thread clock available to the app
  Power cpu_active;   ///< draw while computing
  Power idle;         ///< draw while waiting (screen-on idle)
  Power radio_tx;     ///< draw while transmitting
  Power radio_rx;     ///< draw while receiving

  friend bool operator==(const DeviceSpec&, const DeviceSpec&) = default;
};

/// A UE: pure time and energy queries over its spec. Energy is priced per
/// run (`core::ExecutionReport::device_energy`); a request's battery level
/// is a field of the broker's request, not device state.
class Device {
 public:
  explicit Device(DeviceSpec spec) : spec_(std::move(spec)) {
    NTCO_EXPECTS(!spec_.cpu.is_zero());
  }

  [[nodiscard]] const DeviceSpec& spec() const { return spec_; }

  /// Local execution time for `work`.
  [[nodiscard]] Duration exec_time(Cycles work) const {
    return work / spec_.cpu;
  }

  /// Energy to execute `work` locally.
  [[nodiscard]] Energy exec_energy(Cycles work) const {
    return spec_.cpu_active * exec_time(work);
  }

  [[nodiscard]] Energy tx_energy(Duration t) const {
    NTCO_EXPECTS(!t.is_negative());
    return spec_.radio_tx * t;
  }
  [[nodiscard]] Energy rx_energy(Duration t) const {
    NTCO_EXPECTS(!t.is_negative());
    return spec_.radio_rx * t;
  }
  [[nodiscard]] Energy idle_energy(Duration t) const {
    NTCO_EXPECTS(!t.is_negative());
    return spec_.idle * t;
  }

 private:
  DeviceSpec spec_;
};

/// Presets bracketing the UE space offloading papers consider.
[[nodiscard]] DeviceSpec budget_phone();
[[nodiscard]] DeviceSpec flagship_phone();
[[nodiscard]] DeviceSpec iot_node();
[[nodiscard]] DeviceSpec laptop();

}  // namespace ntco::device
