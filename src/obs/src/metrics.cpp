#include "ntco/obs/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <vector>

#include "ntco/obs/trace.hpp"

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

stats::Histogram& MetricsRegistry::histogram(HistogramName name, double lo,
                                             double hi, std::size_t bins) {
  auto& slot = histograms_[std::string(name.view())];
  if (slot == nullptr)
    slot = std::make_unique<stats::Histogram>(lo, hi, bins);
  return *slot;
}

const Counter* MetricsRegistry::find_counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? nullptr : &it->second;
}

const Gauge* MetricsRegistry::find_gauge(const std::string& name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? nullptr : &it->second;
}

const stats::Accumulator* MetricsRegistry::find_summary(
    const std::string& name) const {
  const auto it = summaries_.find(name);
  return it == summaries_.end() ? nullptr : &it->second;
}

void MetricsRegistry::merge_from(const MetricsRegistry& o) {
  for (const auto& [name, c] : o.counters_) counters_[name].add(c.value());
  for (const auto& [name, g] : o.gauges_) gauges_[name].set(g.value());
  for (const auto& [name, a] : o.summaries_) summaries_[name].merge(a);
  for (const auto& [name, h] : o.histograms_) {
    auto& slot = histograms_[name];
    if (slot == nullptr)
      slot = std::make_unique<stats::Histogram>(*h);
    else
      slot->merge(*h);
  }
}

const stats::Histogram* MetricsRegistry::find_histogram(
    const std::string& name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : it->second.get();
}

namespace {

std::vector<Row> collect(
    const std::map<std::string, Counter>& counters,
    const std::map<std::string, Gauge>& gauges,
    const std::map<std::string, stats::Accumulator>& summaries,
    const std::map<std::string, std::unique_ptr<stats::Histogram>>&
        histograms) {
  std::vector<Row> rows;
  for (const auto& [name, c] : counters)
    rows.push_back({name, "counter", "value", fmt_uint(c.value())});
  for (const auto& [name, g] : gauges)
    rows.push_back({name, "gauge", "value", fmt_double(g.value())});
  for (const auto& [name, a] : summaries) {
    rows.push_back({name, "summary", "count", fmt_uint(a.count())});
    rows.push_back({name, "summary", "sum", fmt_double(a.sum())});
    if (!a.empty()) {
      rows.push_back({name, "summary", "mean", fmt_double(a.mean())});
      rows.push_back({name, "summary", "min", fmt_double(a.min())});
      rows.push_back({name, "summary", "max", fmt_double(a.max())});
      rows.push_back({name, "summary", "stddev", fmt_double(a.stddev())});
    }
  }
  for (const auto& [name, h] : histograms) {
    rows.push_back({name, "histogram", "total", fmt_uint(h->total())});
    rows.push_back({name, "histogram", "underflow", fmt_uint(h->underflow())});
    rows.push_back({name, "histogram", "overflow", fmt_uint(h->overflow())});
    for (std::size_t i = 0; i < h->bin_count(); ++i)
      rows.push_back({name, "histogram",
                      "bin" + std::to_string(i) + "@" + fmt_double(h->bin_lo(i)),
                      fmt_uint(h->bin(i))});
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    return std::tie(a.metric, a.kind, a.field) <
           std::tie(b.metric, b.kind, b.field);
  });
  return rows;
}

}  // namespace

std::string MetricsRegistry::to_csv() const {
  std::string out = "metric,kind,field,value\n";
  for (const auto& r : collect(counters_, gauges_, summaries_, histograms_)) {
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

std::string MetricsRegistry::to_json() const {
  const auto rows = collect(counters_, gauges_, summaries_, histograms_);
  std::string out = "{";
  std::size_t i = 0;
  while (i < rows.size()) {
    // Group consecutive rows of one (metric, kind) into one object.
    if (out.size() > 1) out.push_back(',');
    append_json_escaped(out, rows[i].metric);
    out += ":{\"kind\":";
    append_json_escaped(out, rows[i].kind);
    const std::string& metric = rows[i].metric;
    const std::string& kind = rows[i].kind;
    for (; i < rows.size() && rows[i].metric == metric && rows[i].kind == kind;
         ++i) {
      out.push_back(',');
      append_json_escaped(out, rows[i].field);
      out.push_back(':');
      out += rows[i].value;
    }
    out.push_back('}');
  }
  out += "}\n";
  return out;
}

bool MetricsRegistry::write_csv(const std::string& path) const {
  const std::string csv = to_csv();
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(csv.data(), 1, csv.size(), f) == csv.size();
  const bool closed = std::fclose(f) == 0;
  return wrote && closed;
}

}  // namespace ntco::obs
