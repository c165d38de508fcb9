#pragma once

#include <string>

#include "ntco/common/units.hpp"
#include "ntco/device/device.hpp"
#include "ntco/net/mobility.hpp"

/// \file upload_planner.hpp
/// Connectivity-aware transfer scheduling ("WiFi-wait").
///
/// Moving an offload payload is itself a delay-tolerant job: waiting for
/// the next free, fast connectivity phase avoids metered cellular data and
/// cuts radio-on time (faster links finish sooner at similar power). The
/// planner picks the start time of an upload within its slack that
/// minimises the metered-data charge; the classic special case is "sync
/// photos only on WiFi". Bench F10 measures the effect.

namespace ntco::sched {

/// One deferrable upload.
struct UploadJob {
  std::string name;
  DataSize bytes;
  Duration slack;  ///< must complete by release + slack
};

/// Predicted outcome of starting the upload at a given time.
struct UploadDecision {
  TimePoint start;
  Duration duration;        ///< at the rate of the phase containing start
  Money data_cost;          ///< metered-data charge
  Energy radio_energy;      ///< UE transmit energy
  bool meets_deadline = true;
  std::string tech;         ///< technology used ("WiFi", "4G", ...)
};

/// Plans upload start times against a mobility schedule.
class UploadPlanner {
 public:
  enum class Policy {
    Immediate,   ///< start at release regardless of connectivity
    WaitForFree, ///< defer to the next zero-price phase if slack allows
  };

  struct Config {
    Policy policy = Policy::WaitForFree;
  };

  UploadPlanner(const net::MobilitySchedule& schedule,
                const device::DeviceSpec& device, Config cfg)
      : schedule_(schedule), device_(device), cfg_(cfg) {}

  /// Predicted outcome of starting `job` at exactly `start`.
  /// Transfers are assumed to fit within the phase containing `start`
  /// (longer transfers use that phase's rate as an approximation).
  [[nodiscard]] UploadDecision outcome_at(TimePoint start, TimePoint deadline,
                                          const UploadJob& job) const;

  /// Chooses the start time per the configured policy. The job is never
  /// deferred past the latest start that still meets the deadline; if even
  /// an immediate start misses it, the immediate outcome is returned with
  /// meets_deadline == false.
  [[nodiscard]] UploadDecision plan(TimePoint release,
                                    const UploadJob& job) const;

 private:
  const net::MobilitySchedule& schedule_;
  device::DeviceSpec device_;
  Config cfg_;
};

}  // namespace ntco::sched
