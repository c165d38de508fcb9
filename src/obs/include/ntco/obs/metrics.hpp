#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "ntco/obs/names.hpp"
#include "ntco/stats/accumulator.hpp"

/// \file metrics.hpp
/// Named instrument registry: counters and summaries (streaming moments via
/// stats::Accumulator).
///
/// Components register their summaries once at attach time and cache the
/// returned references (node-based storage keeps them stable for the
/// registry's lifetime), so the per-event cost is one pointer check plus one
/// update. Counters are not counted here per event: each layer's publish()
/// adds them once from the stats struct it keeps anyway. Metric names are
/// stable public API: each instrument call takes a `Name` of its kind,
/// which only a name registered in names.hpp as that kind converts to. The
/// exporter emits them sorted by name so identical-seed runs dump
/// byte-identical CSV.

namespace ntco::obs {

/// Monotonically increasing integer metric.
class Counter {
 public:
  void add(std::uint64_t n = 1) { v_ += n; }
  [[nodiscard]] std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_ = 0;
};

/// Registry of named instruments, created on first use. Same name + same
/// kind returns the same instrument; the same name may exist under both
/// kinds (the export carries a kind column).
class MetricsRegistry {
 public:
  Counter& counter(CounterName name) {
    return counters_[std::string(name.view())];
  }
  stats::Accumulator& summary(SummaryName name) {
    return summaries_[std::string(name.view())];
  }

  [[nodiscard]] const Counter* find_counter(const std::string& name) const;

  [[nodiscard]] std::size_t size() const {
    return counters_.size() + summaries_.size();
  }

  /// Reduces another registry into this one (fleet shard merging):
  /// counters add and summaries merge (parallel Welford). Merging a fixed
  /// sequence of registries yields the same dump under any left-to-right
  /// grouping.
  void merge_from(const MetricsRegistry& o);

  /// CSV dump, header "metric,kind,field,value", rows sorted by
  /// (metric, kind, field). Counters emit one `value` row; summaries emit
  /// count/mean/min/max/stddev/sum.
  [[nodiscard]] std::string to_csv() const;

 private:
  // std::map: sorted iteration for deterministic export, node-based storage
  // for reference stability.
  std::map<std::string, Counter> counters_;
  std::map<std::string, stats::Accumulator> summaries_;
};

}  // namespace ntco::obs
