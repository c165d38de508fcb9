#include "ntco/device/device.hpp"

namespace ntco::device {

DeviceSpec budget_phone() {
  return {"budget-phone",
          Frequency::gigahertz(1.4),
          Power::watts(1.8),
          Power::watts(0.35),
          Power::watts(1.2),
          Power::watts(0.9)};
}

DeviceSpec flagship_phone() {
  return {"flagship-phone",
          Frequency::gigahertz(2.8),
          Power::watts(3.5),
          Power::watts(0.45),
          Power::watts(1.4),
          Power::watts(1.0)};
}

DeviceSpec iot_node() {
  return {"iot-node",
          Frequency::megahertz(400),
          Power::watts(0.5),
          Power::watts(0.05),
          Power::watts(0.7),
          Power::watts(0.5)};
}

DeviceSpec laptop() {
  return {"laptop",
          Frequency::gigahertz(3.2),
          Power::watts(15.0),
          Power::watts(4.0),
          Power::watts(2.5),
          Power::watts(2.0)};
}

}  // namespace ntco::device
