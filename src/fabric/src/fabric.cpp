#include "ntco/fabric/fabric.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ntco/common/contracts.hpp"

namespace ntco::fabric {

namespace {

/// Fair instantaneous rate over `segs`: the path's access cap bottlenecked
/// by each segment's equal split among the flows ahead plus the new flow.
/// `ahead` holds the not-yet-departed committed flow counts per segment.
double instantaneous_bps(const std::vector<double>& capacities,
                         const std::vector<std::size_t>& ahead,
                         double access_bps) {
  double bps = access_bps;
  for (std::size_t i = 0; i < capacities.size(); ++i) {
    bps = std::min(bps,
                   capacities[i] / static_cast<double>(ahead[i] + 1));
  }
  return bps;
}

constexpr std::string_view direction_label(net::LinkDirection dir) {
  return dir == net::LinkDirection::Up ? "up" : "down";
}

}  // namespace

Fabric::Fabric(sim::Simulator& sim, FabricConfig cfg)
    : sim_(sim), cfg_(cfg) {
  NTCO_EXPECTS(cfg_.cubic_ramp_rtts > 0.0);
}

SegmentId Fabric::add_segment(SegmentSpec spec) {
  NTCO_EXPECTS(!spec.capacity.is_zero());
  NTCO_EXPECTS(!spec.latency.is_negative());
  const auto id = static_cast<SegmentId>(segments_.size());
  segments_.push_back(Segment{std::move(spec), {}, {}});
  return id;
}

const SegmentSpec& Fabric::segment(SegmentId id) const {
  NTCO_EXPECTS(id < segments_.size());
  return segments_[id].spec;
}

const SegmentStats& Fabric::segment_stats(SegmentId id) const {
  NTCO_EXPECTS(id < segments_.size());
  return segments_[id].stats;
}

std::unique_ptr<FabricPath> Fabric::attach(const net::PathSpec& spec,
                                           Route route) {
  NTCO_EXPECTS(!spec.up.rate.is_zero() && !spec.down.rate.is_zero());
  for (const SegmentId id : route.up) NTCO_EXPECTS(id < segments_.size());
  for (const SegmentId id : route.down) NTCO_EXPECTS(id < segments_.size());
  return std::unique_ptr<FabricPath>(
      new FabricPath(*this, spec, std::move(route)));
}

void Fabric::advance(Segment& seg, TimePoint now) {
  while (!seg.departures.empty() && *seg.departures.begin() <= now) {
    seg.departures.erase(seg.departures.begin());
    ++seg.stats.flows_departed;
    ++stats_.reshare_events;  // a departure re-shares the segment
  }
}

std::size_t Fabric::active_flows(SegmentId id) {
  NTCO_EXPECTS(id < segments_.size());
  Segment& seg = segments_[id];
  advance(seg, sim_.now());
  return seg.departures.size();
}

DataRate Fabric::fair_share(SegmentId id) {
  NTCO_EXPECTS(id < segments_.size());
  Segment& seg = segments_[id];
  advance(seg, sim_.now());
  const std::size_t n = std::max<std::size_t>(1, seg.departures.size());
  return DataRate::bits_per_second(seg.spec.capacity.count_bps() / n);
}

double Fabric::cubic_drain_seconds(double bits, double bps,
                                   double ramp_seconds) {
  // Cubic window ramp r(t) = clamp01(1 + ((t - K)/K)^3): zero share at
  // admission, fair share at t = K, flat after. Served volume by time t is
  // bps * R(t) with R(t) = t + ((t-K)^4 - K^4) / (4 K^3) on [0, K]
  // (so R(K) = 3K/4) and R(t) = 3K/4 + (t - K) afterwards. Solve
  // bits = bps * R(t): closed form past the plateau, deterministic
  // fixed-iteration bisection before it.
  const double target = bits / bps;  // full-rate seconds of service needed
  const double k = ramp_seconds;
  if (k <= 0.0) return target;
  const double plateau = 0.75 * k;  // R(K)
  if (target >= plateau) return k + (target - plateau);
  double lo = 0.0;
  double hi = k;
  for (int i = 0; i < 64; ++i) {
    const double mid = 0.5 * (lo + hi);
    const double dt = mid - k;
    const double served =
        mid + (dt * dt * dt * dt - k * k * k * k) / (4.0 * k * k * k);
    if (served < target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return hi;
}

Duration Fabric::admit(const std::vector<SegmentId>& segs, DataSize bytes,
                       DataRate access_cap, Duration ramp,
                       const std::string& path_name, net::LinkDirection dir) {
  NTCO_EXPECTS(!bytes.is_zero());
  NTCO_EXPECTS(!access_cap.is_zero());
  const TimePoint now = sim_.now();
  for (const SegmentId id : segs) advance(segments_[id], now);

  const std::uint64_t flow = next_flow_++;
  ++stats_.flows;
  ++stats_.reshare_events;  // the arrival itself re-shares its route

  // Route-local view of the committed departures: per-segment cursor over
  // the ordered multiset plus the count of flows still ahead. The scratch
  // members are reused across admissions; they grow to the widest route
  // once and every later admission is allocation-free.
  const std::size_t width = segs.size();
  scratch_capacity_.resize(width);
  scratch_cursor_.resize(width);
  scratch_last_.resize(width);
  scratch_ahead_.resize(width);
  std::vector<double>& capacities = scratch_capacity_;
  auto& cursor = scratch_cursor_;
  auto& last = scratch_last_;
  auto& ahead = scratch_ahead_;
  for (std::size_t i = 0; i < width; ++i) {
    const Segment& seg = segments_[segs[i]];
    capacities[i] = static_cast<double>(seg.spec.capacity.count_bps());
    cursor[i] = seg.departures.begin();
    last[i] = seg.departures.end();
    ahead[i] = seg.departures.size();
  }
  const double access_bps = static_cast<double>(access_cap.count_bps());

  double remaining_bits = static_cast<double>(bytes.count_bits());
  double elapsed = 0.0;  // seconds since admission
  const double share0_bps = instantaneous_bps(capacities, ahead, access_bps);
  double bps = share0_bps;

  if (cfg_.sharing == SharingModel::CubicAimd) {
    // Cubic mode ramps against the admission snapshot of the fair share;
    // departure stepping is skipped (the ramp dominates short flows, and
    // long flows converge to the snapshot share).
    elapsed = cubic_drain_seconds(remaining_bits, bps, ramp.to_seconds());
    remaining_bits = 0.0;
  } else {
    // Piecewise-constant integration over the committed departures of the
    // flows ahead, amortised at max_reshare_steps.
    std::size_t steps = 0;
    while (remaining_bits > 0.0) {
      // Earliest committed departure ahead of the integration point.
      TimePoint breakpoint = TimePoint::at(Duration::max());
      bool have_breakpoint = false;
      for (std::size_t i = 0; i < width; ++i) {
        if (cursor[i] != last[i] &&
            (!have_breakpoint || *cursor[i] < breakpoint)) {
          breakpoint = *cursor[i];
          have_breakpoint = true;
        }
      }
      if (!have_breakpoint) break;  // nothing ahead: drain at current rate
      const double window = (breakpoint - now).to_seconds() - elapsed;
      const double drained = bps * window;
      if (drained >= remaining_bits) break;  // finishes before the breakpoint
      if (steps >= cfg_.max_reshare_steps) {
        // Amortisation: stop stepping and hold the current share for the
        // tail even though departures ahead would have raised it.
        ++stats_.amortized_tails;
        break;
      }
      remaining_bits -= drained;
      elapsed += window;
      for (std::size_t i = 0; i < width; ++i) {
        while (cursor[i] != last[i] && *cursor[i] <= breakpoint) {
          ++cursor[i];
          --ahead[i];
        }
      }
      ++steps;
      ++stats_.reshare_steps;
      bps = instantaneous_bps(capacities, ahead, access_bps);
    }
  }

  // Final drain at the held rate; ceil to a whole microsecond exactly like
  // DataSize / DataRate so an uncontended fabric reproduces FixedLink math.
  const double total_us = elapsed * 1e6 + remaining_bits / bps * 1e6;
  const Duration drain =
      Duration::micros(static_cast<std::int64_t>(std::ceil(total_us)));
  const TimePoint finish = now + drain;

  for (const SegmentId id : segs) {
    Segment& seg = segments_[id];
    // The one allocation per admitted flow: its departures-set node
    // (pinned by tests/allocation_count_test.cpp).
    seg.departures.insert(finish);
    ++seg.stats.flows_admitted;
    seg.stats.bytes_carried += bytes;
    seg.stats.peak_flows = std::max(seg.stats.peak_flows,
                                    seg.departures.size());
  }

  if (trace_ != nullptr) {
    obs::emit(trace_, now, "fabric.flow.start",
              {{"flow", flow},
               {"path", std::string_view(path_name)},
               {"dir", direction_label(dir)},
               {"bytes", bytes},
               {"segments", static_cast<std::uint64_t>(width)},
               {"share_bps",
                static_cast<std::uint64_t>(std::llround(share0_bps))},
               {"dur", drain}});
    obs::TraceSink* sink = trace_;
    sim_.schedule_at(finish, [this, sink, flow, bytes, drain] {
      // The sink captured at admission, not trace_, so detaching mid-flight
      // never drops a started flow's finish record.
      obs::emit(sink, sim_.now(), "fabric.flow.finish",
                {{"flow", flow}, {"bytes", bytes}, {"dur", drain}});
    });
  }
  return drain;
}

Duration FabricPath::one_way(const std::vector<SegmentId>& segs,
                             const net::DirectionSpec& dspec,
                             net::LinkDirection dir, DataSize size) {
  Duration latency = dspec.latency;
  for (const SegmentId id : segs) latency += fabric_.segment(id).latency;
  if (size.is_zero()) return latency;  // headers pay latency, not capacity
  const Duration rtt = spec_.up.latency + spec_.down.latency;
  const Duration ramp = std::max(
      Duration::micros(1), rtt * fabric_.config().cubic_ramp_rtts);
  return latency + fabric_.admit(segs, size, dspec.rate, ramp, spec_.name,
                                 dir);
}

}  // namespace ntco::fabric
