#include "ntco/app/arrivals.hpp"

#include <algorithm>
#include <cmath>

#include "ntco/common/contracts.hpp"

namespace ntco::app {

namespace {

/// Traces one generated arrival.
void observe_arrival(const ArrivalObserver& watch, TimePoint at,
                     std::uint64_t seq) {
  if (watch.trace != nullptr)
    obs::emit(watch.trace, at, "app.arrival.job",
              {{"seq", seq}, {"hour", hour_of_day(at)}});
}

/// Counts a generator call's `jobs` arrivals.
void count_arrivals(const ArrivalObserver& watch, std::uint64_t jobs) {
  if (watch.metrics != nullptr)
    watch.metrics->counter("app.arrival.jobs").add(jobs);
}

}  // namespace

std::vector<TimePoint> poisson_arrivals(TimePoint start, Duration horizon,
                                        double rate_per_second, Rng& rng,
                                        const ArrivalObserver& watch) {
  NTCO_EXPECTS(rate_per_second > 0.0);
  NTCO_EXPECTS(!horizon.is_negative());
  std::vector<TimePoint> out;
  const TimePoint end = start + horizon;
  TimePoint t = start;
  std::uint64_t seq = 0;
  for (;;) {
    t = t + Duration::from_seconds(rng.exponential(1.0 / rate_per_second));
    if (t >= end) break;
    observe_arrival(watch, t, seq++);
    out.push_back(t);
  }
  count_arrivals(watch, seq);
  return out;
}

DiurnalProfile DiurnalProfile::flat() {
  DiurnalProfile p;
  p.weight.fill(1.0);
  return p;
}

DiurnalProfile DiurnalProfile::residential_evening() {
  // Relative weights per hour of day; absolute rates are normalized by the
  // mean, so only the shape matters. Night floor ~0.2, morning shoulder
  // peaking at 08:00, workday trough, dominant evening peak 19:00-23:00.
  DiurnalProfile p;
  p.weight = {0.30, 0.22, 0.18, 0.16, 0.16, 0.20,   // 00-05
              0.40, 0.80, 1.10, 0.95, 0.80, 0.75,   // 06-11
              0.85, 0.80, 0.70, 0.70, 0.80, 1.00,   // 12-17
              1.40, 1.90, 2.20, 2.30, 1.90, 1.00};  // 18-23
  return p;
}

double DiurnalProfile::mean() const {
  double sum = 0.0;
  for (const double w : weight) sum += w;
  return sum / 24.0;
}

double DiurnalProfile::max() const {
  double m = weight[0];
  for (const double w : weight) m = std::max(m, w);
  return m;
}

std::vector<TimePoint> mmpp_arrivals(const MmppConfig& cfg, TimePoint start,
                                     Duration horizon, Rng& rng,
                                     const ArrivalObserver& watch) {
  NTCO_EXPECTS(cfg.mean_rate_per_second > 0.0);
  NTCO_EXPECTS(cfg.burst_multiplier >= 1.0);
  NTCO_EXPECTS(!horizon.is_negative());
  const double mean_w = cfg.profile.mean();
  NTCO_EXPECTS(mean_w > 0.0);
  for (const double w : cfg.profile.weight) NTCO_EXPECTS(w >= 0.0);

  const TimePoint end = start + horizon;
  const bool modulated = cfg.burst_multiplier > 1.0;

  // Thinning (Lewis & Shedler): candidates at the peak modulated rate,
  // accepted with probability rate(t)/peak. Exact for any piecewise rate
  // as long as the modulating trajectory is drawn independently of the
  // accept draws — the burst chain below advances on candidate times but
  // its sojourns never depend on them.
  const double peak = cfg.mean_rate_per_second * (cfg.profile.max() / mean_w) *
                      cfg.burst_multiplier;

  // Lazy two-state chain: in_burst flips at next_switch, sojourn lengths
  // drawn as the chain is crossed.
  bool in_burst = false;
  TimePoint next_switch =
      start + (modulated
                   ? Duration::from_seconds(
                         rng.exponential(kMmppMeanCalm.to_seconds()))
                   : horizon + Duration::hours(1));

  std::vector<TimePoint> out;
  TimePoint t = start;
  std::uint64_t seq = 0;
  for (;;) {
    t = t + Duration::from_seconds(rng.exponential(1.0 / peak));
    if (t >= end) break;
    while (modulated && next_switch <= t) {
      in_burst = !in_burst;
      const double mean_sojourn = in_burst ? kMmppMeanBurst.to_seconds()
                                           : kMmppMeanCalm.to_seconds();
      next_switch =
          next_switch + Duration::from_seconds(rng.exponential(mean_sojourn));
    }
    const double w =
        cfg.profile.weight[static_cast<std::size_t>(hour_of_day(t))];
    const double rate = cfg.mean_rate_per_second * (w / mean_w) *
                        (in_burst ? cfg.burst_multiplier : 1.0);
    if (rng.uniform(0.0, 1.0) * peak >= rate) continue;  // thinned out
    observe_arrival(watch, t, seq++);
    out.push_back(t);
  }
  count_arrivals(watch, seq);
  return out;
}

std::vector<VehicleSession> vehicular_sessions(const VehicularConfig& cfg,
                                               TimePoint start,
                                               Duration horizon, Rng& rng,
                                               const ArrivalObserver& watch) {
  NTCO_EXPECTS(cfg.vehicles_per_second > 0.0);
  NTCO_EXPECTS(cfg.requests_per_second > 0.0);
  NTCO_EXPECTS(cfg.min_residence > Duration::zero());
  NTCO_EXPECTS(cfg.mean_residence >= cfg.min_residence);
  NTCO_EXPECTS(cfg.bw_sigma >= 0.0);
  NTCO_EXPECTS(cfg.battery_min >= 0.0 && cfg.battery_min <= 1.0);
  NTCO_EXPECTS(!horizon.is_negative());

  const TimePoint end = start + horizon;
  std::vector<VehicleSession> out;
  TimePoint enter = start;
  std::uint64_t vehicle = 0;
  std::uint64_t seq = 0;
  for (;;) {
    enter = enter + Duration::from_seconds(
                        rng.exponential(1.0 / cfg.vehicles_per_second));
    if (enter >= end) break;

    VehicleSession s;
    s.vehicle = vehicle++;
    s.enter = enter;
    s.residence = std::max(
        cfg.min_residence,
        Duration::from_seconds(rng.exponential(cfg.mean_residence.to_seconds())));
    if (watch.trace != nullptr)
      obs::emit(watch.trace, s.enter, "app.arrival.vehicle_enter",
                {{"vehicle", s.vehicle}, {"residence", s.residence}});

    // Per-vehicle request stream with multiplicative link churn: one walk
    // step per offer models the handoffs/fading between consecutive
    // requests of a moving vehicle.
    const double battery = rng.uniform(cfg.battery_min, 1.0);
    double bw_scale = std::exp2(rng.normal(0.0, cfg.bw_sigma));
    const TimePoint exit = s.enter + s.residence;
    TimePoint at = s.enter;
    for (;;) {
      at = at + Duration::from_seconds(
                    rng.exponential(1.0 / cfg.requests_per_second));
      if (at >= exit) break;
      bw_scale *= std::exp2(rng.normal(0.0, cfg.bw_sigma));
      VehicleRequest r;
      r.at = at;
      r.bw_scale = bw_scale;
      r.battery = battery;
      r.residence_left = exit - at;
      observe_arrival(watch, at, seq++);
      s.requests.push_back(r);
    }
    if (watch.trace != nullptr)
      obs::emit(watch.trace, exit, "app.arrival.vehicle_exit",
                {{"vehicle", s.vehicle},
                 {"requests", static_cast<std::uint64_t>(s.requests.size())}});
    out.push_back(std::move(s));
  }
  count_arrivals(watch, seq);
  return out;
}

}  // namespace ntco::app
