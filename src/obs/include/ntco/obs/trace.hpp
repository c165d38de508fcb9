#pragma once

#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>

#include "ntco/common/units.hpp"
#include "ntco/obs/names.hpp"

/// \file trace.hpp
/// Simulator tracing: per-event logs as first-class experiment artifacts.
///
/// Every traced component exposes an attach point taking a `TraceSink*`;
/// a null sink (the default) costs one pointer compare per potential record
/// and nothing else — call sites guard field construction behind the null
/// check. Event names are part of the public API: `emit` takes a
/// `TraceName`, which only a name registered in names.hpp as a trace
/// converts to. Exporters render them deterministically so two
/// identical-seed runs produce byte-identical traces.

namespace ntco::obs {

/// One strongly typed trace attribute value. Numeric kinds render unquoted
/// in JSON; unit types map to their integer representations (Duration and
/// TimePoint to microseconds, DataSize to bytes, Money to nano-USD).
class FieldValue {
 public:
  enum class Kind : std::uint8_t { Int, UInt, Double, Bool, Str };

  FieldValue(std::int64_t v) : kind_(Kind::Int) { i_ = v; }
  FieldValue(std::int32_t v) : FieldValue(static_cast<std::int64_t>(v)) {}
  FieldValue(std::uint64_t v) : kind_(Kind::UInt) { u_ = v; }
  FieldValue(std::uint32_t v) : FieldValue(static_cast<std::uint64_t>(v)) {}
  FieldValue(double v) : kind_(Kind::Double) { d_ = v; }
  FieldValue(bool v) : kind_(Kind::Bool) { b_ = v; }
  FieldValue(std::string_view v) : kind_(Kind::Str), s_(v) {}
  FieldValue(const char* v) : FieldValue(std::string_view(v)) {}
  FieldValue(Duration d) : FieldValue(d.count_micros()) {}
  FieldValue(TimePoint t) : FieldValue(t.since_origin()) {}
  FieldValue(DataSize s) : FieldValue(s.count_bytes()) {}
  FieldValue(Money m) : FieldValue(m.count_nano_usd()) {}

  [[nodiscard]] Kind kind() const { return kind_; }
  [[nodiscard]] std::int64_t as_int() const { return i_; }
  [[nodiscard]] std::uint64_t as_uint() const { return u_; }
  [[nodiscard]] double as_double() const { return d_; }
  [[nodiscard]] bool as_bool() const { return b_; }
  [[nodiscard]] std::string_view as_str() const { return s_; }

 private:
  Kind kind_;
  union {
    std::int64_t i_;
    std::uint64_t u_;
    double d_;
    bool b_;
  };
  std::string_view s_;
};

/// One key/value attribute of a trace event. Keys must be string literals
/// (or otherwise outlive the record() call).
struct Field {
  std::string_view key;
  FieldValue value;
};

/// One trace record. `name` is a stable dotted identifier
/// ("sim.event.fired", "faas.cold_start", ...); fields are borrowed for the
/// duration of the record() call only.
struct TraceEvent {
  TimePoint time;
  std::string_view name;
  const Field* fields = nullptr;
  std::size_t field_count = 0;
};

/// Receiver of trace records. Implementations must not retain the borrowed
/// field storage past record().
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void record(const TraceEvent& ev) = 0;
};

/// Convenience emitter; a no-op on a null sink. Hot paths should still guard
/// with `if (sink)` so the field array is never materialised when disabled.
inline void emit(TraceSink* sink, TimePoint t, TraceName name,
                 std::initializer_list<Field> fields = {}) {
  if (sink == nullptr) return;
  TraceEvent ev;
  ev.time = t;
  ev.name = name.view();
  ev.fields = fields.begin();
  ev.field_count = fields.size();
  sink->record(ev);
}

/// Read-only clock a traced component uses to timestamp records without
/// depending on the simulation kernel (sim::Simulator implements it).
class TraceClock {
 public:
  virtual ~TraceClock() = default;
  [[nodiscard]] virtual TimePoint trace_now() const = 0;
};

/// Sink that only counts records (tests, hook-overhead measurement).
class CountingSink final : public TraceSink {
 public:
  void record(const TraceEvent&) override { ++count_; }
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  std::uint64_t count_ = 0;
};

/// JSONL exporter: one JSON object per record, in arrival order, e.g.
///   {"t_us":1500,"ev":"faas.cold_start","fn":0,"init_us":180600}
/// Rendering is deterministic (integer microsecond timestamps, "%.9g"
/// doubles, fields in emission order), so identical-seed runs produce
/// byte-identical output.
class JsonlTraceWriter final : public TraceSink {
 public:
  void record(const TraceEvent& ev) override;

  [[nodiscard]] const std::string& str() const { return out_; }
  [[nodiscard]] std::size_t record_count() const { return records_; }

  /// Appends another writer's buffered records after this one's — how the
  /// fleet stitches per-shard trace streams: concatenating in shard order
  /// keeps the combined stream byte-identical at any worker count.
  void append_from(const JsonlTraceWriter& o) {
    out_ += o.out_;
    records_ += o.records_;
  }
  void clear() {
    out_.clear();
    records_ = 0;
  }

 private:
  std::string out_;
  std::size_t records_ = 0;
};

}  // namespace ntco::obs
