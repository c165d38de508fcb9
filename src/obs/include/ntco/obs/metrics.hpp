#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "ntco/obs/names.hpp"
#include "ntco/stats/accumulator.hpp"
#include "ntco/stats/histogram.hpp"

/// \file metrics.hpp
/// Named instrument registry: counters, gauges, summaries (streaming
/// moments via stats::Accumulator), and histograms (stats::Histogram).
///
/// Components register their instruments once at attach time and cache the
/// returned references (node-based storage keeps them stable for the
/// registry's lifetime), so the per-event cost is one pointer check plus an
/// integer add. Metric names are stable public API: each instrument call
/// takes a `Name` of its kind, which only a name registered in names.hpp as
/// that kind converts to. Exporters emit them sorted by name so
/// identical-seed runs dump byte-identical CSV/JSON.

namespace ntco::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_ += n; }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Last-write-wins floating-point metric.
class Gauge {
 public:
  void set(double v) { v_ = v; }
  [[nodiscard]] double value() const { return v_; }

 private:
  double v_ = 0.0;
};

/// Registry of named instruments, created on first use. Same name + same
/// kind returns the same instrument; the same name may exist under several
/// kinds (exports carry a kind column).
class MetricsRegistry {
 public:
  Counter& counter(CounterName name) {
    return counters_[std::string(name.view())];
  }
  Gauge& gauge(GaugeName name) { return gauges_[std::string(name.view())]; }
  stats::Accumulator& summary(SummaryName name) {
    return summaries_[std::string(name.view())];
  }
  /// Bin geometry is fixed by the first caller for a given name.
  stats::Histogram& histogram(HistogramName name, double lo, double hi,
                              std::size_t bins);

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;
  [[nodiscard]] const Gauge* find_gauge(const std::string& name) const;
  [[nodiscard]] const stats::Accumulator* find_summary(
      const std::string& name) const;
  [[nodiscard]] const stats::Histogram* find_histogram(
      const std::string& name) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + gauges_.size() + summaries_.size() +
           histograms_.size();
  }

  /// Reduces another registry into this one (fleet shard merging):
  /// counters add, summaries merge (parallel Welford), histograms add
  /// bin-wise (geometry must match — contract violation otherwise), and
  /// gauges take `o`'s value (last write wins, so merging shards in shard
  /// order reproduces the single-threaded sequence of writes). Merging a
  /// fixed sequence of registries yields the same dump under any
  /// left-to-right grouping.
  void merge_from(const MetricsRegistry& o);

  /// CSV dump, header "metric,kind,field,value", rows sorted by
  /// (metric, kind, field). Counters/gauges emit one `value` row; summaries
  /// emit count/mean/min/max/stddev/sum; histograms emit total/underflow/
  /// overflow plus one row per bin keyed "bin<i>@<lo>".
  [[nodiscard]] std::string to_csv() const;

  /// One JSON object keyed by metric name (sorted), each value an object
  /// with "kind" plus the same fields as the CSV.
  [[nodiscard]] std::string to_json() const;

  /// Writes to_csv() to `path` (overwriting). Returns false on I/O failure.
  bool write_csv(const std::string& path) const;

 private:
  // std::map: sorted iteration for deterministic export, node-based storage
  // for reference stability.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, stats::Accumulator> summaries_;
  std::map<std::string, std::unique_ptr<stats::Histogram>> histograms_;
};

}  // namespace ntco::obs
