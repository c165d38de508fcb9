// Must not compile: "sim.event.fried" is not in the telemetry-name
// registry. Built only by the ObsNameMisspeltFailsToCompile ctest.
#include "ntco/obs/trace.hpp"

void emit_misspelt(ntco::obs::TraceSink* sink) {
  ntco::obs::emit(sink, ntco::TimePoint::origin(), "sim.event.fried");
}
