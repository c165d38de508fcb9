// Must not compile: "core.runs" is registered as a counter, not a trace.
// Built only by the ObsNameWrongKindFailsToCompile ctest.
#include "ntco/obs/trace.hpp"

void emit_counter_name(ntco::obs::TraceSink* sink) {
  ntco::obs::emit(sink, ntco::TimePoint::origin(), "core.runs");
}
