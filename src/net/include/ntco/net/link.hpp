#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "ntco/common/contracts.hpp"
#include "ntco/common/rng.hpp"
#include "ntco/common/units.hpp"
#include "ntco/obs/trace.hpp"

/// \file link.hpp
/// One-way network link models.
///
/// A transfer of `size` over a link costs one-way latency plus serialisation
/// at the (possibly time-varying) achievable rate. Links are stateful: the
/// stochastic variants consume randomness, so the sampling member functions
/// are non-const.

namespace ntco::net {

/// Abstract one-way link.
class Link {
 public:
  virtual ~Link() = default;

  /// Samples the one-way propagation latency for the next transfer.
  [[nodiscard]] virtual Duration sample_latency() = 0;

  /// Samples the achievable throughput for the next transfer.
  [[nodiscard]] virtual DataRate sample_rate() = 0;

  /// Nominal (configured) throughput, for reporting.
  [[nodiscard]] virtual DataRate nominal_rate() const = 0;

  /// Nominal one-way latency, for reporting.
  [[nodiscard]] virtual Duration nominal_latency() const = 0;

  /// Time to move `size` one way: sampled latency + serialisation at the
  /// sampled rate. Zero-size transfers still pay latency (the request
  /// header has to travel).
  [[nodiscard]] Duration transfer_time(DataSize size) {
    const Duration lat = sample_latency();
    const DataRate rate = sample_rate();
    NTCO_ENSURES(!lat.is_negative());
    NTCO_ENSURES(!rate.is_zero());
    return lat + size / rate;
  }

  /// Attaches tracing: "net.link.*" records (losses) stamped with `clock`
  /// time and tagged `label`. Both pointers may be null (disables
  /// tracing); decorators forward to their inner link.
  virtual void set_trace(obs::TraceSink* sink, const obs::TraceClock* clock,
                         std::string label) {
    trace_ = sink;
    clock_ = clock;
    label_ = std::move(label);
  }

 protected:
  [[nodiscard]] bool traced() const {
    return trace_ != nullptr && clock_ != nullptr;
  }

  /// Emits one record with the link label prepended; call only when
  /// traced().
  void trace_event(obs::TraceName name,
                   std::initializer_list<obs::Field> extra) {
    std::vector<obs::Field> fields;
    fields.reserve(extra.size() + 1);
    fields.push_back({"link", std::string_view(label_)});
    fields.insert(fields.end(), extra.begin(), extra.end());
    const obs::TraceEvent ev{clock_->trace_now(), name.view(), fields.data(),
                             fields.size()};
    trace_->record(ev);
  }

 private:
  obs::TraceSink* trace_ = nullptr;
  const obs::TraceClock* clock_ = nullptr;
  std::string label_;
};

/// Deterministic link: constant latency and rate. The baseline model and
/// the one analytic cost models reason about.
class FixedLink final : public Link {
 public:
  FixedLink(Duration latency, DataRate rate) : latency_(latency), rate_(rate) {
    NTCO_EXPECTS(!latency.is_negative());
    NTCO_EXPECTS(!rate.is_zero());
  }

  [[nodiscard]] Duration sample_latency() override { return latency_; }
  [[nodiscard]] DataRate sample_rate() override { return rate_; }
  [[nodiscard]] DataRate nominal_rate() const override { return rate_; }
  [[nodiscard]] Duration nominal_latency() const override { return latency_; }

 private:
  Duration latency_;
  DataRate rate_;
};

/// Stochastic link: log-normally distributed latency around a median and
/// normally jittered rate, matching measured WAN behaviour closely enough
/// for trend studies.
class StochasticLink final : public Link {
 public:
  /// `latency_sigma` is the sigma of the underlying normal of the log-normal
  /// latency (0.25 ≈ mild jitter, 1.0 ≈ heavy tail). `rate_cv` is the
  /// coefficient of variation of the rate (truncated at ±3σ and 5% floor).
  StochasticLink(Duration median_latency, double latency_sigma, DataRate rate,
                 double rate_cv, Rng rng)
      : median_latency_(median_latency),
        latency_sigma_(latency_sigma),
        rate_(rate),
        rate_cv_(rate_cv),
        rng_(rng) {
    NTCO_EXPECTS(!median_latency.is_negative());
    NTCO_EXPECTS(latency_sigma >= 0.0);
    NTCO_EXPECTS(!rate.is_zero());
    NTCO_EXPECTS(rate_cv >= 0.0 && rate_cv < 0.34);
  }

  [[nodiscard]] Duration sample_latency() override {
    const double factor = rng_.lognormal(0.0, latency_sigma_);
    return median_latency_ * factor;
  }

  [[nodiscard]] DataRate sample_rate() override {
    double factor = rng_.normal(1.0, rate_cv_);
    factor = std::max(0.05, std::min(factor, 1.0 + 3.0 * rate_cv_));
    return rate_ * factor;
  }

  [[nodiscard]] DataRate nominal_rate() const override { return rate_; }
  [[nodiscard]] Duration nominal_latency() const override {
    return median_latency_;
  }

 private:
  Duration median_latency_;
  double latency_sigma_;
  DataRate rate_;
  double rate_cv_;
  Rng rng_;
};

}  // namespace ntco::net
