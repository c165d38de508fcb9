#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "ntco/common/rng.hpp"
#include "ntco/common/units.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"

/// \file arrivals.hpp
/// Open-loop arrival processes: the demand side of population-scale
/// serving experiments.
///
/// Every experiment up to F14 was closed-loop — a fixed population
/// re-offers work, so the broker's admission controller never faced
/// genuine arrival pressure. These generators produce *open-loop* request
/// streams: arrivals keep coming at the process rate whether or not the
/// system keeps up, which is the regime the paper's non-time-critical
/// deferral story is actually about.
///
/// Three processes, increasing in structure:
///   - `poisson_arrivals`: homogeneous Poisson at a fixed rate.
///   - `mmpp_arrivals`: a Markov-modulated Poisson process whose base
///     rate follows a 24 h diurnal envelope (piecewise-constant hourly
///     weights) with an optional two-state burst chain on top; sampled
///     exactly via thinning against the peak rate.
///   - `vehicular_sessions`: vehicles enter radio coverage as a Poisson
///     stream, stay for a short exponential link-residence time, and
///     offer requests while resident; per-handoff link-quality churn is a
///     multiplicative random walk. Requests carry the remaining residence
///     as a *hard* deadline — the result must land before the vehicle
///     leaves the cell.
///
/// Determinism: every draw flows through the caller's `Rng`. Fleet runs
/// hand each shard `Rng::stream(seed, shard)`, so the generated stream is
/// a pure function of (seed, shard) and byte-identical at any
/// NTCO_THREADS (see tests/arrivals_test.cpp, ArrivalFleet suite).

namespace ntco::app {

/// Optional observability attachment for arrival generation. When `trace`
/// is non-null each generated arrival emits an "app.arrival.*" event;
/// when `metrics` is non-null each call adds its arrival count to the
/// "app.arrival.jobs" counter.
struct ArrivalObserver {
  obs::TraceSink* trace = nullptr;
  obs::MetricsRegistry* metrics = nullptr;
};

/// Homogeneous Poisson arrivals in [start, start + horizon), sorted.
/// Pre: rate_per_second > 0, horizon non-negative.
[[nodiscard]] std::vector<TimePoint> poisson_arrivals(
    TimePoint start, Duration horizon, double rate_per_second, Rng& rng,
    const ArrivalObserver& watch = {});

/// 24-hour rate envelope: one relative weight per hour of day. The
/// absolute rate at simulated hour h is
///   mean_rate * weight[h] / mean(weight)
/// so the time-averaged rate over a full day equals `mean_rate` exactly,
/// whatever the shape.
struct DiurnalProfile {
  std::array<double, 24> weight{};

  /// Constant rate (degenerates MMPP to homogeneous Poisson).
  [[nodiscard]] static DiurnalProfile flat();

  /// Calibrated residential two-peak day: a morning shoulder (07-09), a
  /// deep workday trough, a dominant evening peak (19-23) — the shape
  /// mobile-traffic studies report for consumer workloads — and a
  /// night-time floor that never quite reaches zero.
  [[nodiscard]] static DiurnalProfile residential_evening();

  [[nodiscard]] double mean() const;
  [[nodiscard]] double max() const;
};

/// Markov-modulated Poisson arrivals under a diurnal envelope.
struct MmppConfig {
  /// Time-averaged arrival rate over a full day (see DiurnalProfile).
  double mean_rate_per_second = 1.0;
  DiurnalProfile profile = DiurnalProfile::residential_evening();
  /// Optional two-state burst chain on top of the envelope: while the
  /// chain is in its burst state the instantaneous rate is multiplied by
  /// `burst_multiplier`. Sojourn times are exponential with means
  /// kMmppMeanBurst and kMmppMeanCalm. A multiplier of 1 disables the
  /// chain (pure diurnal non-homogeneous Poisson).
  double burst_multiplier = 1.0;
};

/// Mean sojourn in the MMPP's burst and calm states.
inline constexpr Duration kMmppMeanBurst = Duration::minutes(5);
inline constexpr Duration kMmppMeanCalm = Duration::minutes(55);
static_assert(kMmppMeanBurst > Duration::zero());
static_assert(kMmppMeanCalm > Duration::zero());

/// Samples the MMPP exactly over [start, start + horizon) via thinning
/// against the peak modulated rate. Arrivals are sorted. Pre:
/// mean_rate_per_second > 0, burst_multiplier >= 1, a profile with
/// positive mean weight.
[[nodiscard]] std::vector<TimePoint> mmpp_arrivals(
    const MmppConfig& cfg, TimePoint start, Duration horizon, Rng& rng,
    const ArrivalObserver& watch = {});

/// Fast-churn vehicular population (Dettinger et al.'s dynamic vehicular
/// regime): short link residence, per-vehicle request streams, and
/// link-quality churn across handoffs.
struct VehicularConfig {
  /// Poisson rate at which vehicles enter radio coverage.
  double vehicles_per_second = 0.5;
  /// Exponential link-residence time (how long one vehicle stays served
  /// by the cell), floored at `min_residence`.
  Duration mean_residence = Duration::seconds(45);
  Duration min_residence = Duration::seconds(5);
  /// Per-vehicle Poisson request rate while resident.
  double requests_per_second = 0.2;
  /// Log2-scale sigma of the multiplicative link-quality random walk: the
  /// vehicle's bandwidth scale steps by exp2(N(0, bw_sigma)) at every
  /// request (mobility churn between consecutive offers).
  double bw_sigma = 0.5;
  /// Battery state of charge drawn uniformly in [battery_min, 1].
  double battery_min = 0.2;
};

/// One request offered by a resident vehicle.
struct VehicleRequest {
  TimePoint at;
  /// Link quality relative to the nominal path at request time (random
  /// walk across the session; churns per request).
  double bw_scale = 1.0;
  double battery = 1.0;
  /// Hard deadline: the result must be back before the vehicle exits
  /// coverage (exit - at).
  Duration residence_left;
};

/// One vehicle's pass through the cell.
struct VehicleSession {
  std::uint64_t vehicle = 0;
  TimePoint enter;
  Duration residence;
  std::vector<VehicleRequest> requests;

  [[nodiscard]] TimePoint exit() const { return enter + residence; }
};

/// Generates every session whose vehicle enters during
/// [start, start + horizon), sorted by entry time; requests within each
/// session are sorted too. Pre: positive rates, mean_residence >=
/// min_residence > 0, bw_sigma >= 0, battery_min in [0, 1].
[[nodiscard]] std::vector<VehicleSession> vehicular_sessions(
    const VehicularConfig& cfg, TimePoint start, Duration horizon, Rng& rng,
    const ArrivalObserver& watch = {});

}  // namespace ntco::app
