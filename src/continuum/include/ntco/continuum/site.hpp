#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "ntco/common/units.hpp"
#include "ntco/edgesim/edge_platform.hpp"
#include "ntco/net/transport.hpp"
#include "ntco/serverless/platform.hpp"

/// \file site.hpp
/// `continuum::Site`: one capacity pool of the edge–cloud continuum.
///
/// A site wraps either backend kind — a `serverless::Platform` function
/// (elastic, pay-per-use, possibly spot) or an `edgesim::EdgePlatform`
/// (fixed servers, pay-per-existence) — behind one submit/checkpoint
/// surface plus a `net::Transport` route from the UE. Routes are
/// ordinary Transports, so `PathSpec` presets and `fabric::FabricPath`
/// plug in unchanged and sites contend on shared segments.
///
/// Estimation vs. commitment: `est_*` methods read only nominal figures
/// (`Transport::spec()`, platform pricing math) and never consume
/// randomness or capacity, so the federation can compare candidate sites
/// without perturbing the world. `submit` commits.

namespace ntco::continuum {

/// Site handle within a Federation (index into its registry).
using SiteId = std::uint32_t;

/// Backend job handle, valid until the job's callback fires.
using Ticket = std::uint64_t;

/// Continuum tier, ordered nearest-first (placement is edge-first).
enum class SiteTier : std::uint8_t { Edge = 0, Regional = 1, Cloud = 2 };

/// Which platform kind backs the site.
enum class BackendKind : std::uint8_t { Serverless, Edge };

/// Utilisation at or above which placement spills past a site.
inline constexpr double kSpillThreshold = 0.85;

/// Per-site knobs of a serverless-backed site.
struct SiteConfig {
  /// Capacity tier its submissions run at.
  serverless::Tier faas_tier = serverless::Tier::OnDemand;
};

/// Outcome of one run attempt on a site, normalised across backends.
struct SiteResult {
  TimePoint submitted;
  TimePoint started;
  TimePoint finished;
  Duration queue_wait;
  Duration exec_time;    ///< exec rendered by *this* run (partial if preempted)
  Duration exec_credit;  ///< prior exec credited into this run
  Money cost;            ///< marginal compute cost attributed to this run
  bool preempted = false;
};

/// One capacity pool: backend + UE route + placement knobs. Movable so a
/// Federation can hold sites by value; backends and routes are borrowed.
class Site {
 public:
  using Callback = std::function<void(const SiteResult&)>;

  /// Serverless-backed site: jobs run as invocations of `fn` at
  /// `cfg.faas_tier`.
  Site(SiteId id, std::string name, SiteTier tier, serverless::Platform& faas,
       serverless::FunctionId fn, net::Transport& ue_route,
       SiteConfig cfg = {});

  /// Edge-backed site: jobs occupy the site's fixed servers.
  Site(SiteId id, std::string name, SiteTier tier,
       edgesim::EdgePlatform& edge, net::Transport& ue_route);

  [[nodiscard]] SiteId id() const { return id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] SiteTier tier() const { return tier_; }
  [[nodiscard]] BackendKind kind() const { return kind_; }

  /// UE <-> site transport (stateful; estimate with `.spec()`).
  [[nodiscard]] net::Transport& ue_route() const { return *route_; }

  // --- Estimation (nominal, side-effect free) -----------------------------

  /// Execution time of `work` on this site's compute.
  [[nodiscard]] Duration est_exec(Cycles work) const;

  /// Queueing delay estimate ahead of a job of `work` submitted now.
  [[nodiscard]] Duration est_wait(Cycles work) const;

  /// Marginal compute cost of running `work` here around time `when`.
  /// Serverless: the platform's own invocation_cost at the site tier.
  /// Edge: exec-time share of the server-hour rate (marginal attribution;
  /// the standing infra cost exists either way).
  [[nodiscard]] Money est_cost(Cycles work, TimePoint when) const;

  /// Instantaneous load fraction (may exceed 1 when a backlog has formed).
  [[nodiscard]] double utilization() const;

  // --- Commitment ---------------------------------------------------------

  /// Starts `work` with `exec_credit` of it already performed (zero for a
  /// fresh job). `done` fires on completion or preemption.
  Ticket submit(Cycles work, Duration exec_credit, Callback done);

  /// Checkpoints a queued or running job: its callback fires now with
  /// `preempted = true` and the partial exec/cost of the run so far.
  bool checkpoint(Ticket t);

 private:
  SiteId id_;
  std::string name_;
  SiteTier tier_;
  BackendKind kind_;
  serverless::Platform* faas_ = nullptr;
  serverless::FunctionId fn_ = 0;
  edgesim::EdgePlatform* edge_ = nullptr;
  net::Transport* route_;
  SiteConfig cfg_;  ///< serverless-backed sites only
};

}  // namespace ntco::continuum
