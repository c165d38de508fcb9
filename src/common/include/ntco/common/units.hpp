#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>

#include "ntco/common/contracts.hpp"

/// \file units.hpp
/// Strongly typed physical and economic quantities (Core Guidelines I.4).
///
/// Every quantity the framework reasons about — simulated time, data volume,
/// CPU work, money, energy — is a distinct type with integer representation
/// so that simulations are deterministic and unit confusion is a compile
/// error. Cross-unit arithmetic is only defined where physically meaningful:
///   Cycles / Frequency  -> Duration
///   DataSize / DataRate -> Duration
///   Power * Duration    -> Energy
///   MoneyRate * Duration-> Money

namespace ntco {

/// Simulated time span. Representation: signed microseconds.
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration micros(std::int64_t us) {
    return Duration(us);
  }
  [[nodiscard]] static constexpr Duration millis(std::int64_t ms) {
    return Duration(ms * 1'000);
  }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t s) {
    return Duration(s * 1'000'000);
  }
  [[nodiscard]] static constexpr Duration minutes(std::int64_t m) {
    return Duration(m * 60'000'000);
  }
  [[nodiscard]] static constexpr Duration hours(std::int64_t h) {
    return Duration(h * 3'600'000'000LL);
  }
  /// Rounds to the nearest microsecond.
  [[nodiscard]] static Duration from_seconds(double s) {
    NTCO_EXPECTS(std::isfinite(s));
    return Duration(static_cast<std::int64_t>(std::llround(s * 1e6)));
  }
  [[nodiscard]] static constexpr Duration zero() { return Duration(0); }
  [[nodiscard]] static constexpr Duration max() {
    return Duration(std::numeric_limits<std::int64_t>::max());
  }

  [[nodiscard]] constexpr std::int64_t count_micros() const { return us_; }
  [[nodiscard]] constexpr double to_seconds() const {
    return static_cast<double>(us_) / 1e6;
  }
  [[nodiscard]] constexpr double to_millis() const {
    return static_cast<double>(us_) / 1e3;
  }
  [[nodiscard]] constexpr bool is_zero() const { return us_ == 0; }
  [[nodiscard]] constexpr bool is_negative() const { return us_ < 0; }

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration& operator+=(Duration o) {
    us_ += o.us_;
    return *this;
  }
  constexpr Duration& operator-=(Duration o) {
    us_ -= o.us_;
    return *this;
  }
  friend constexpr Duration operator+(Duration a, Duration b) {
    return Duration(a.us_ + b.us_);
  }
  friend constexpr Duration operator-(Duration a, Duration b) {
    return Duration(a.us_ - b.us_);
  }
  friend constexpr Duration operator-(Duration a) { return Duration(-a.us_); }
  friend Duration operator*(Duration a, double k) {
    return Duration(static_cast<std::int64_t>(
        std::llround(static_cast<double>(a.us_) * k)));
  }
  friend Duration operator*(double k, Duration a) { return a * k; }
  friend Duration operator/(Duration a, double k) {
    NTCO_EXPECTS(k != 0.0);
    return Duration(static_cast<std::int64_t>(
        std::llround(static_cast<double>(a.us_) / k)));
  }
  /// Ratio of two durations.
  friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.us_) / static_cast<double>(b.us_);
  }

 private:
  constexpr explicit Duration(std::int64_t us) : us_(us) {}
  std::int64_t us_ = 0;
};

/// Absolute simulated time, measured from simulation start.
class TimePoint {
 public:
  constexpr TimePoint() = default;
  [[nodiscard]] static constexpr TimePoint origin() { return TimePoint(); }
  [[nodiscard]] static constexpr TimePoint at(Duration since_origin) {
    return TimePoint(since_origin);
  }

  [[nodiscard]] constexpr Duration since_origin() const { return d_; }

  constexpr auto operator<=>(const TimePoint&) const = default;

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint(t.d_ + d);
  }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) {
    return TimePoint(t.d_ - d);
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return a.d_ - b.d_;
  }

 private:
  constexpr explicit TimePoint(Duration d) : d_(d) {}
  Duration d_;
};

/// Simulated hour of day of `when`, in [0, 24) from the origin on.
[[nodiscard]] constexpr int hour_of_day(TimePoint when) {
  return static_cast<int>(
      (when.since_origin().count_micros() / 3'600'000'000LL) % 24);
}

/// Volume of data. Representation: unsigned bytes.
class DataSize {
 public:
  constexpr DataSize() = default;

  [[nodiscard]] static constexpr DataSize bytes(std::uint64_t b) {
    return DataSize(b);
  }
  [[nodiscard]] static constexpr DataSize kilobytes(std::uint64_t kb) {
    return DataSize(kb * 1'000);
  }
  [[nodiscard]] static constexpr DataSize megabytes(std::uint64_t mb) {
    return DataSize(mb * 1'000'000);
  }
  [[nodiscard]] static constexpr DataSize gigabytes(std::uint64_t gb) {
    return DataSize(gb * 1'000'000'000ULL);
  }
  [[nodiscard]] static constexpr DataSize zero() { return DataSize(0); }

  [[nodiscard]] constexpr std::uint64_t count_bytes() const { return b_; }
  [[nodiscard]] constexpr std::uint64_t count_bits() const { return b_ * 8; }
  [[nodiscard]] constexpr double to_megabytes() const {
    return static_cast<double>(b_) / 1e6;
  }
  [[nodiscard]] constexpr bool is_zero() const { return b_ == 0; }

  constexpr auto operator<=>(const DataSize&) const = default;

  constexpr DataSize& operator+=(DataSize o) {
    b_ += o.b_;
    return *this;
  }
  friend constexpr DataSize operator+(DataSize a, DataSize b) {
    return DataSize(a.b_ + b.b_);
  }
  friend DataSize operator*(DataSize a, double k) {
    NTCO_EXPECTS(k >= 0.0);
    return DataSize(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(a.b_) * k)));
  }

 private:
  constexpr explicit DataSize(std::uint64_t b) : b_(b) {}
  std::uint64_t b_ = 0;
};

/// CPU work. Representation: unsigned cycles.
class Cycles {
 public:
  constexpr Cycles() = default;

  [[nodiscard]] static constexpr Cycles count(std::uint64_t c) {
    return Cycles(c);
  }
  [[nodiscard]] static constexpr Cycles mega(std::uint64_t mc) {
    return Cycles(mc * 1'000'000);
  }
  [[nodiscard]] static constexpr Cycles giga(std::uint64_t gc) {
    return Cycles(gc * 1'000'000'000ULL);
  }
  [[nodiscard]] static constexpr Cycles zero() { return Cycles(0); }

  [[nodiscard]] constexpr std::uint64_t value() const { return c_; }
  [[nodiscard]] constexpr double to_mega() const {
    return static_cast<double>(c_) / 1e6;
  }
  [[nodiscard]] constexpr bool is_zero() const { return c_ == 0; }

  constexpr auto operator<=>(const Cycles&) const = default;

  constexpr Cycles& operator+=(Cycles o) {
    c_ += o.c_;
    return *this;
  }
  friend constexpr Cycles operator+(Cycles a, Cycles b) {
    return Cycles(a.c_ + b.c_);
  }
  friend Cycles operator*(Cycles a, double k) {
    NTCO_EXPECTS(k >= 0.0);
    return Cycles(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(a.c_) * k)));
  }

 private:
  constexpr explicit Cycles(std::uint64_t c) : c_(c) {}
  std::uint64_t c_ = 0;
};

/// Clock frequency. Representation: Hz (cycles per second).
class Frequency {
 public:
  constexpr Frequency() = default;

  [[nodiscard]] static constexpr Frequency hertz(std::uint64_t hz) {
    return Frequency(hz);
  }
  [[nodiscard]] static constexpr Frequency megahertz(std::uint64_t mhz) {
    return Frequency(mhz * 1'000'000);
  }
  [[nodiscard]] static constexpr Frequency gigahertz(double ghz) {
    return Frequency(static_cast<std::uint64_t>(ghz * 1e9));
  }

  [[nodiscard]] constexpr std::uint64_t count_hertz() const { return hz_; }
  [[nodiscard]] constexpr bool is_zero() const { return hz_ == 0; }

  constexpr auto operator<=>(const Frequency&) const = default;

  friend Frequency operator*(Frequency f, double k) {
    NTCO_EXPECTS(k >= 0.0);
    return Frequency(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(f.hz_) * k)));
  }

 private:
  constexpr explicit Frequency(std::uint64_t hz) : hz_(hz) {}
  std::uint64_t hz_ = 0;
};

/// Link throughput. Representation: bits per second.
class DataRate {
 public:
  constexpr DataRate() = default;

  [[nodiscard]] static constexpr DataRate bits_per_second(std::uint64_t bps) {
    return DataRate(bps);
  }
  [[nodiscard]] static constexpr DataRate kilobits_per_second(
      std::uint64_t kbps) {
    return DataRate(kbps * 1'000);
  }
  [[nodiscard]] static constexpr DataRate megabits_per_second(
      std::uint64_t mbps) {
    return DataRate(mbps * 1'000'000);
  }

  [[nodiscard]] constexpr std::uint64_t count_bps() const { return bps_; }
  [[nodiscard]] constexpr double to_mbps() const {
    return static_cast<double>(bps_) / 1e6;
  }
  [[nodiscard]] constexpr bool is_zero() const { return bps_ == 0; }

  constexpr auto operator<=>(const DataRate&) const = default;

  friend DataRate operator*(DataRate r, double k) {
    NTCO_EXPECTS(k >= 0.0);
    return DataRate(static_cast<std::uint64_t>(
        std::llround(static_cast<double>(r.bps_) * k)));
  }

 private:
  constexpr explicit DataRate(std::uint64_t bps) : bps_(bps) {}
  std::uint64_t bps_ = 0;
};

/// Monetary amount. Representation: signed nano-USD (1e-9 dollars), so even
/// per-request serverless prices ($2e-7) accumulate without floating-point
/// drift. Range: ±$9.2e9, ample for any simulated bill.
class Money {
 public:
  constexpr Money() = default;

  [[nodiscard]] static constexpr Money nano_usd(std::int64_t nu) {
    return Money(nu);
  }
  [[nodiscard]] static constexpr Money micro_usd(std::int64_t mu) {
    return Money(mu * 1'000);
  }
  [[nodiscard]] static constexpr Money cents(std::int64_t c) {
    return Money(c * 10'000'000);
  }
  [[nodiscard]] static constexpr Money usd(std::int64_t d) {
    return Money(d * 1'000'000'000);
  }
  [[nodiscard]] static Money from_usd(double d) {
    NTCO_EXPECTS(std::isfinite(d));
    return Money(static_cast<std::int64_t>(std::llround(d * 1e9)));
  }
  [[nodiscard]] static constexpr Money zero() { return Money(0); }

  [[nodiscard]] constexpr std::int64_t count_nano_usd() const { return mu_; }
  [[nodiscard]] constexpr std::int64_t count_micro_usd() const {
    return mu_ / 1'000;
  }
  [[nodiscard]] constexpr double to_usd() const {
    return static_cast<double>(mu_) / 1e9;
  }
  [[nodiscard]] constexpr bool is_zero() const { return mu_ == 0; }

  constexpr auto operator<=>(const Money&) const = default;

  constexpr Money& operator+=(Money o) {
    mu_ += o.mu_;
    return *this;
  }
  constexpr Money& operator-=(Money o) {
    mu_ -= o.mu_;
    return *this;
  }
  friend constexpr Money operator+(Money a, Money b) {
    return Money(a.mu_ + b.mu_);
  }
  friend constexpr Money operator-(Money a, Money b) {
    return Money(a.mu_ - b.mu_);
  }
  friend Money operator*(Money a, double k) {
    return Money(static_cast<std::int64_t>(
        std::llround(static_cast<double>(a.mu_) * k)));
  }
  friend Money operator*(double k, Money a) { return a * k; }

 private:
  constexpr explicit Money(std::int64_t mu) : mu_(mu) {}
  std::int64_t mu_ = 0;
};

/// Electrical power draw. Representation: milliwatts.
class Power {
 public:
  constexpr Power() = default;

  [[nodiscard]] static constexpr Power milliwatts(std::int64_t mw) {
    return Power(mw);
  }
  [[nodiscard]] static Power watts(double w) {
    NTCO_EXPECTS(std::isfinite(w) && w >= 0.0);
    return Power(static_cast<std::int64_t>(std::llround(w * 1e3)));
  }
  [[nodiscard]] static constexpr Power zero() { return Power(0); }

  [[nodiscard]] constexpr std::int64_t count_milliwatts() const { return mw_; }
  [[nodiscard]] constexpr double to_watts() const {
    return static_cast<double>(mw_) / 1e3;
  }

  constexpr auto operator<=>(const Power&) const = default;

 private:
  constexpr explicit Power(std::int64_t mw) : mw_(mw) {}
  std::int64_t mw_ = 0;
};

/// Energy. Representation: microjoules.
class Energy {
 public:
  constexpr Energy() = default;

  [[nodiscard]] static constexpr Energy microjoules(std::int64_t uj) {
    return Energy(uj);
  }
  [[nodiscard]] static Energy joules(double j) {
    NTCO_EXPECTS(std::isfinite(j));
    return Energy(static_cast<std::int64_t>(std::llround(j * 1e6)));
  }
  [[nodiscard]] static constexpr Energy zero() { return Energy(0); }

  [[nodiscard]] constexpr std::int64_t count_microjoules() const {
    return uj_;
  }
  [[nodiscard]] constexpr double to_joules() const {
    return static_cast<double>(uj_) / 1e6;
  }
  [[nodiscard]] constexpr bool is_zero() const { return uj_ == 0; }

  constexpr auto operator<=>(const Energy&) const = default;

  constexpr Energy& operator+=(Energy o) {
    uj_ += o.uj_;
    return *this;
  }
  friend constexpr Energy operator+(Energy a, Energy b) {
    return Energy(a.uj_ + b.uj_);
  }
  friend constexpr Energy operator-(Energy a, Energy b) {
    return Energy(a.uj_ - b.uj_);
  }
  friend Energy operator*(Energy a, double k) {
    return Energy(static_cast<std::int64_t>(
        std::llround(static_cast<double>(a.uj_) * k)));
  }

 private:
  constexpr explicit Energy(std::int64_t uj) : uj_(uj) {}
  std::int64_t uj_ = 0;
};

// --- Cross-unit physics -----------------------------------------------------

/// Time to execute `work` on a clock running at `f`. Rounds up so that a
/// nonzero workload never takes zero simulated time.
[[nodiscard]] inline Duration operator/(Cycles work, Frequency f) {
  NTCO_EXPECTS(!f.is_zero());
  const double us = static_cast<double>(work.value()) /
                    static_cast<double>(f.count_hertz()) * 1e6;
  return Duration::micros(static_cast<std::int64_t>(std::ceil(us)));
}

/// Time to move `size` over a link of throughput `rate`. Rounds up.
[[nodiscard]] inline Duration operator/(DataSize size, DataRate rate) {
  NTCO_EXPECTS(!rate.is_zero());
  const double us = static_cast<double>(size.count_bits()) /
                    static_cast<double>(rate.count_bps()) * 1e6;
  return Duration::micros(static_cast<std::int64_t>(std::ceil(us)));
}

/// Energy drawn by a load of `p` sustained for `d`.
[[nodiscard]] inline Energy operator*(Power p, Duration d) {
  NTCO_EXPECTS(!d.is_negative());
  // mW * us = nanojoule; convert to microjoules.
  const double uj = static_cast<double>(p.count_milliwatts()) *
                    static_cast<double>(d.count_micros()) / 1e3;
  return Energy::microjoules(static_cast<std::int64_t>(std::llround(uj)));
}
[[nodiscard]] inline Energy operator*(Duration d, Power p) { return p * d; }

// --- Formatting --------------------------------------------------------------

/// Human-readable rendering, e.g. "12.50 ms", "3.20 MB", "$0.000041".
[[nodiscard]] std::string to_string(Duration d);
[[nodiscard]] std::string to_string(DataSize s);
[[nodiscard]] std::string to_string(Cycles c);
[[nodiscard]] std::string to_string(Money m);
[[nodiscard]] std::string to_string(Energy e);

}  // namespace ntco
