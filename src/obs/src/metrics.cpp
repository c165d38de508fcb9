#include "ntco/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <vector>

namespace ntco::obs {

namespace {

std::string fmt_double(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

std::string fmt_uint(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

/// One exported scalar: (metric, kind, field, rendered value).
struct Row {
  std::string metric;
  std::string kind;
  std::string field;
  std::string value;
};

}  // namespace

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& o) {
  for (const auto& [name, c] : o.counters_) counters_[name].add(c.value());
  for (const auto& [name, a] : o.summaries_) summaries_[name].merge(a);
}

std::string MetricsRegistry::to_csv() const {
  std::vector<Row> rows;
  for (const auto& [name, c] : counters_)
    rows.push_back({name, "counter", "value", fmt_uint(c.value())});
  for (const auto& [name, a] : summaries_) {
    rows.push_back({name, "summary", "count", fmt_uint(a.count())});
    rows.push_back({name, "summary", "sum", fmt_double(a.sum())});
    if (!a.empty()) {
      rows.push_back({name, "summary", "mean", fmt_double(a.mean())});
      rows.push_back({name, "summary", "min", fmt_double(a.min())});
      rows.push_back({name, "summary", "max", fmt_double(a.max())});
      rows.push_back({name, "summary", "stddev", fmt_double(a.stddev())});
    }
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.metric, a.kind, a.field) <
           std::tie(b.metric, b.kind, b.field);
  });

  std::string out = "metric,kind,field,value\n";
  for (const Row& r : rows) {
    out += r.metric;
    out.push_back(',');
    out += r.kind;
    out.push_back(',');
    out += r.field;
    out.push_back(',');
    out += r.value;
    out.push_back('\n');
  }
  return out;
}

}  // namespace ntco::obs
