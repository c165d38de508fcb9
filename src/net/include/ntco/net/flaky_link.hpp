#pragma once

#include <memory>

#include "ntco/common/rng.hpp"
#include "ntco/net/link.hpp"
#include "ntco/net/transport.hpp"
#include "ntco/obs/trace.hpp"

/// \file flaky_link.hpp
/// Failure injection for network links.
///
/// A FlakyLink wraps any Link and makes each transfer fail independently
/// with probability `failure_rate`. A failed transfer still costs wall time
/// (the sender waits out a timeout) and radio energy; recovering is the
/// caller's policy — core::OffloadController retries and falls back to
/// local execution (see core::kMaxTransferRetries).

namespace ntco::net {

// TransferAttempt lives in transport.hpp (it is part of the Transport
// attempt API); this header keeps the link-level failure injector.

/// Decorator injecting Bernoulli transfer failures into any Link.
class FlakyLink final : public Link {
 public:
  /// `timeout` is the time a failed attempt costs the sender (detection by
  /// timer expiry). Pre: 0 <= failure_rate <= 1.
  FlakyLink(std::unique_ptr<Link> inner, double failure_rate,
            Duration timeout, Rng rng)
      : inner_(std::move(inner)),
        failure_rate_(failure_rate),
        timeout_(timeout),
        rng_(rng) {
    NTCO_EXPECTS(inner_ != nullptr);
    NTCO_EXPECTS(failure_rate >= 0.0 && failure_rate <= 1.0);
    NTCO_EXPECTS(!timeout.is_negative());
  }

  [[nodiscard]] Duration sample_latency() override {
    return inner_->sample_latency();
  }
  [[nodiscard]] DataRate sample_rate() override {
    return inner_->sample_rate();
  }
  [[nodiscard]] DataRate nominal_rate() const override {
    return inner_->nominal_rate();
  }
  [[nodiscard]] Duration nominal_latency() const override {
    return inner_->nominal_latency();
  }

  /// One attempt: fails with the configured probability, burning the
  /// timeout; otherwise behaves like the wrapped link.
  [[nodiscard]] TransferAttempt try_transfer(DataSize size) {
    if (rng_.bernoulli(failure_rate_)) {
      ++failures_;
      if (traced())
        trace_event("net.link.loss", {{"bytes", size}, {"timeout", timeout_}});
      return TransferAttempt{false, timeout_};
    }
    return TransferAttempt{true, transfer_time(size)};
  }

  /// Tracing also covers the wrapped link (a nested FlakyLink traces its
  /// own losses).
  void set_trace(obs::TraceSink* sink, const obs::TraceClock* clock,
                 std::string label) override {
    inner_->set_trace(sink, clock, label);
    Link::set_trace(sink, clock, std::move(label));
  }

  [[nodiscard]] std::uint64_t failures() const { return failures_; }
  [[nodiscard]] double failure_rate() const { return failure_rate_; }

 private:
  std::unique_ptr<Link> inner_;
  double failure_rate_;
  Duration timeout_;
  Rng rng_;
  std::uint64_t failures_ = 0;
};

/// Uniform attempt API over any link: plain links always succeed.
[[nodiscard]] inline TransferAttempt attempt_transfer(Link& link,
                                                      DataSize size) {
  if (auto* flaky = dynamic_cast<FlakyLink*>(&link))
    return flaky->try_transfer(size);
  return TransferAttempt{true, link.transfer_time(size)};
}

}  // namespace ntco::net
