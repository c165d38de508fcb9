#include "ntco/obs/trace.hpp"

#include <cstdio>

namespace ntco::obs {

namespace {

/// Appends a JSON string escape of `s` to `out`.
void append_json_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

/// Appends a deterministic rendering of `v` to `out` (numbers unquoted).
void append_json_value(std::string& out, const FieldValue& v) {
  char buf[32];
  switch (v.kind()) {
    case FieldValue::Kind::Int:
      std::snprintf(buf, sizeof buf, "%lld",
                    static_cast<long long>(v.as_int()));
      out += buf;
      break;
    case FieldValue::Kind::UInt:
      std::snprintf(buf, sizeof buf, "%llu",
                    static_cast<unsigned long long>(v.as_uint()));
      out += buf;
      break;
    case FieldValue::Kind::Double:
      std::snprintf(buf, sizeof buf, "%.9g", v.as_double());
      out += buf;
      break;
    case FieldValue::Kind::Bool:
      out += v.as_bool() ? "true" : "false";
      break;
    case FieldValue::Kind::Str:
      append_json_escaped(out, v.as_str());
      break;
  }
}

}  // namespace

void JsonlTraceWriter::record(const TraceEvent& ev) {
  char buf[32];
  out_ += "{\"t_us\":";
  std::snprintf(buf, sizeof buf, "%lld",
                static_cast<long long>(ev.time.since_origin().count_micros()));
  out_ += buf;
  out_ += ",\"ev\":";
  append_json_escaped(out_, ev.name);
  for (std::size_t i = 0; i < ev.field_count; ++i) {
    out_.push_back(',');
    append_json_escaped(out_, ev.fields[i].key);
    out_.push_back(':');
    append_json_value(out_, ev.fields[i].value);
  }
  out_ += "}\n";
  ++records_;
}

}  // namespace ntco::obs
