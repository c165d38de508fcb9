#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "ntco/common/contracts.hpp"

/// \file accumulator.hpp
/// Streaming moment statistics (Welford's online algorithm).

namespace ntco::stats {

/// Numerically stable streaming mean/variance/min/max accumulator.
class Accumulator {
 public:
  void add(double x) {
    NTCO_EXPECTS(std::isfinite(x));
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
    sum_ += x;
  }

  [[nodiscard]] std::uint64_t count() const { return n_; }
  [[nodiscard]] bool empty() const { return n_ == 0; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Pre: !empty().
  [[nodiscard]] double mean() const {
    NTCO_EXPECTS(n_ > 0);
    return mean_;
  }
  [[nodiscard]] double min() const {
    NTCO_EXPECTS(n_ > 0);
    return min_;
  }
  [[nodiscard]] double max() const {
    NTCO_EXPECTS(n_ > 0);
    return max_;
  }

  /// Sample variance (n-1 denominator); 0 for a single observation.
  [[nodiscard]] double variance() const {
    NTCO_EXPECTS(n_ > 0);
    if (n_ < 2) return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
  }
  [[nodiscard]] double stddev() const { return std::sqrt(variance()); }

  /// Merges another accumulator (parallel Welford combination).
  void merge(const Accumulator& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double delta = o.mean_ - mean_;
    const auto n = static_cast<double>(n_), m = static_cast<double>(o.n_);
    m2_ += o.m2_ + delta * delta * n * m / (n + m);
    mean_ = (n * mean_ + m * o.mean_) / (n + m);
    n_ += o.n_;
    sum_ += o.sum_;
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
};

}  // namespace ntco::stats
