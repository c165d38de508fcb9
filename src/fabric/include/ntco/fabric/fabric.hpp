#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ntco/common/units.hpp"
#include "ntco/net/transport.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/sim/simulator.hpp"

/// \file fabric.hpp
/// Flow-level shared-network model: named capacity segments (cell uplink,
/// edge LAN, WAN) on which transfers from many UEs contend.
///
/// The paper's offload crossover assumes each UE sees a private link; at
/// population scale the access and aggregation legs are shared, and
/// contention is what actually moves the edge-vs-serverless break-even
/// point. The fabric models that with a fluid flow abstraction:
///
///  - A transfer becomes a *flow* that occupies every segment along its
///    route from admission until its committed finish time.
///  - Capacity is split max-min fair: at any instant a flow's rate is the
///    minimum over its route of `capacity_s / n_s(t)` (equal split among
///    the flows active on segment s), additionally capped by the path's
///    own nominal access rate.
///  - Bandwidth is re-shared on every arrival and departure: the admission
///    integrator walks the committed departures of the flows ahead of it
///    (piecewise-constant rates between departures) and each expiry or
///    arrival updates the per-segment active set.
///
/// Determinism & the synchronous Transport contract. FabricPath implements
/// net::Transport, whose timing calls return a Duration at admission time.
/// The fabric therefore *commits* each flow's finish time when it is
/// admitted, computed against the flows active at that instant and their
/// already-committed departures. Later arrivals slow nobody retroactively —
/// they see the earlier flows ahead of them instead. This admission-order
/// fluid model is deterministic (a pure function of the admission
/// sequence), byte-stable across runs, and exact whenever no new flow
/// arrives before an in-flight one drains; under churn it is a documented
/// approximation that consistently favours earlier arrivals (FIFO-fair,
/// like the real world's slow-start disadvantage for newcomers).
///
/// Performance. Per-segment active sets are ordered containers
/// (std::multiset keyed by committed departure time), so
/// admission costs O(route · log flows). The integrator is amortised: it
/// steps at most `kMaxReshareSteps` committed departures before holding
/// the then-current share constant for the remainder (counted in
/// FabricStats::amortized_tails), so 100k+ concurrent flows admit in
/// bounded time instead of O(flows) each.
///
/// Tracing. Each flow emits "fabric.flow.start" at admission and
/// "fabric.flow.finish" at its committed finish (scheduled through the
/// simulator, so same-timestamp records keep schedule order and artifacts
/// are byte-deterministic). Field lists are documented in DESIGN.md
/// ("Observability").

namespace ntco::fabric {

/// Handle to one capacity segment.
using SegmentId = std::uint32_t;

/// Admission integrator amortisation: committed-departure breakpoints
/// stepped per admission before the remaining bytes drain at the
/// then-current share. Bounds admission cost under extreme churn.
inline constexpr std::size_t kMaxReshareSteps = 64;

/// Static description of one shared segment. Segments are unidirectional
/// resources; model a duplex hop as one ".up" and one ".down" segment.
struct SegmentSpec {
  std::string name;
  DataRate capacity;
  /// Propagation latency added to every traversal of this segment (on top
  /// of the attached path's own access latency).
  Duration latency;
};

/// Per-segment accounting.
struct SegmentStats {
  std::uint64_t flows_admitted = 0;
  std::uint64_t flows_departed = 0;
  DataSize bytes_carried;
  std::size_t peak_flows = 0;  ///< max concurrently active flows observed
};

/// Fabric-wide accounting.
struct FabricStats {
  std::uint64_t flows = 0;
  /// Re-share points observed: one per admission plus one per departure.
  std::uint64_t reshare_events = 0;
  /// Committed-departure breakpoints the admission integrator stepped.
  std::uint64_t reshare_steps = 0;
  /// Admissions that hit kMaxReshareSteps and amortised their tail.
  std::uint64_t amortized_tails = 0;
};

/// Segment route of one path, per direction (UE -> remote order for `up`,
/// remote -> UE for `down`). Routes may be empty (direction rides only the
/// path's private access figures).
struct Route {
  std::vector<SegmentId> up;
  std::vector<SegmentId> down;
};

class FabricPath;

/// The shared fabric: a set of named segments plus the flow bookkeeping.
/// Non-copyable; lives alongside one sim::Simulator.
class Fabric {
 public:
  explicit Fabric(sim::Simulator& sim) : sim_(sim) {}

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Registers a segment. Pre: nonzero capacity, non-negative latency.
  SegmentId add_segment(SegmentSpec spec);

  [[nodiscard]] const SegmentSpec& segment(SegmentId id) const;

  /// Attaches a UE-side path: `spec` supplies the private access figures
  /// (nominal rate cap, latency, name), `route` the shared segments each
  /// direction traverses. The returned FabricPath is a net::Transport and
  /// must not outlive the fabric.
  [[nodiscard]] std::unique_ptr<FabricPath> attach(const net::PathSpec& spec,
                                                   Route route);

  /// Flows active on `id` right now (expired committed departures are
  /// retired first).
  [[nodiscard]] std::size_t active_flows(SegmentId id);

  /// Instantaneous equal split a flow on `id` receives right now
  /// (capacity when idle).
  [[nodiscard]] DataRate fair_share(SegmentId id);

  /// Attaches the flow tracer ("fabric.flow.start"/"fabric.flow.finish");
  /// records are stamped with the simulator clock. Null detaches.
  void set_trace(obs::TraceSink* sink) { trace_ = sink; }

  [[nodiscard]] const FabricStats& stats() const { return stats_; }
  [[nodiscard]] const SegmentStats& segment_stats(SegmentId id) const;

 private:
  friend class FabricPath;

  struct Segment {
    SegmentSpec spec;
    /// Committed departure times of the flows active on this segment,
    /// ordered — the indexed structure every re-share reads.
    std::multiset<TimePoint> departures;
    SegmentStats stats;
  };

  /// Retires committed departures at or before `now`.
  void advance(Segment& seg, TimePoint now);

  /// Admits a flow of `bytes` over `segs` now; returns its drain time
  /// (serialisation under contention; excludes propagation latency).
  /// `access_cap` caps the rate (the path's own nominal figure).
  Duration admit(const std::vector<SegmentId>& segs, DataSize bytes,
                 DataRate access_cap, const std::string& path_name,
                 net::LinkDirection dir);

  sim::Simulator& sim_;
  std::vector<Segment> segments_;
  obs::TraceSink* trace_ = nullptr;
  FabricStats stats_;
  std::uint64_t next_flow_ = 0;

  /// admit() scratch, hoisted off the per-flow path: sized to the route
  /// width, so after the first admission over the widest route no
  /// admission allocates.
  std::vector<double> scratch_capacity_;
  std::vector<std::multiset<TimePoint>::const_iterator> scratch_cursor_;
  std::vector<std::multiset<TimePoint>::const_iterator> scratch_last_;
  std::vector<std::size_t> scratch_ahead_;
};

/// Flow-backed, contention-aware Transport over a Fabric. Created by
/// Fabric::attach(); core::OffloadController, the platforms, and the
/// benches use it interchangeably with net::NetworkPath.
class FabricPath final : public net::Transport {
 public:
  [[nodiscard]] const std::string& name() const override {
    return spec_.name;
  }
  [[nodiscard]] const net::PathSpec& spec() const override { return spec_; }
  [[nodiscard]] const Route& route() const { return route_; }

  /// One-way times: access latency + per-segment propagation + drain time
  /// under the fabric's current contention. Zero-size transfers pay the
  /// full one-way latency and nothing else (Transport timing contract):
  /// a header occupies no capacity, so no flow is admitted.
  [[nodiscard]] Duration uplink_time(DataSize size) override {
    return one_way(route_.up, spec_.up, net::LinkDirection::Up, size);
  }
  [[nodiscard]] Duration downlink_time(DataSize size) override {
    return one_way(route_.down, spec_.down, net::LinkDirection::Down, size);
  }

  /// Forwards to Fabric::set_trace — flow records are fabric-wide and
  /// stamped with the fabric's simulator clock; `clock` is unused.
  void set_trace(obs::TraceSink* sink,
                 const obs::TraceClock* /*clock*/) override {
    fabric_.set_trace(sink);
  }

 private:
  friend class Fabric;

  FabricPath(Fabric& fabric, net::PathSpec spec, Route route)
      : fabric_(fabric), spec_(std::move(spec)), route_(std::move(route)) {}

  [[nodiscard]] Duration one_way(const std::vector<SegmentId>& segs,
                                 const net::DirectionSpec& dspec,
                                 net::LinkDirection dir, DataSize size);

  Fabric& fabric_;
  net::PathSpec spec_;
  Route route_;
};

}  // namespace ntco::fabric
