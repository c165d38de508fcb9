#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

/// \file names.hpp
/// Central registry of every telemetry name the tree emits: the single
/// source of truth for `obs` trace-event and metric names.
///
/// One row per instrument:
///
///   NTCO_OBS_NAME(kind, "dotted.name", "`field`, `field` notes")
///
/// `kind` is one of: trace, counter, summary. The fields column documents
/// fields in emission order for traces, units/notes for metrics; DESIGN.md's
/// "Observability" tables are these rows, rendered.
///
/// The rows expand into `kNameRegistry`, and the contract is checked
/// exactly, in both directions:
/// - the name parameter of `obs::emit`, `net::Link::trace_event` and
///   `MetricsRegistry::{counter, summary}` is a `Name<K>`, whose
///   `consteval` constructor looks the literal up with its kind, so an
///   unregistered or wrong-kind literal does not compile;
/// - a `static_assert` below rejects a name registered twice;
/// - tests/obs_names_test.cpp fails on a row that no file under src/ uses,
///   and on DESIGN.md tables that differ from the rendered rows.

namespace ntco::obs {

enum class NameKind : std::uint8_t {
  trace,
  counter,
  summary,
};

/// One registry row.
struct NameRow {
  NameKind kind;
  std::string_view name;
  std::string_view fields;
};

#define NTCO_OBS_NAME(kind, name, fields) \
  NameRow{NameKind::kind, name, fields},

inline constexpr NameRow kNameRegistry[] = {
// --- sim: event kernel ----------------------------------------------------
NTCO_OBS_NAME(trace, "sim.event.scheduled", "`seq`, `at` (µs)")
NTCO_OBS_NAME(trace, "sim.event.fired", "`seq`")
NTCO_OBS_NAME(trace, "sim.event.cancelled", "`seq`")

// --- serverless platform --------------------------------------------------
NTCO_OBS_NAME(trace, "faas.invoke", "`fn`, `work`, `tier`")
NTCO_OBS_NAME(trace, "faas.resume", "`fn`, `work`, `credit`, `tier`")
NTCO_OBS_NAME(trace, "faas.throttled", "`fn`, `queue_depth`")
NTCO_OBS_NAME(trace, "faas.warm_reuse", "`fn`, `provisioned`")
NTCO_OBS_NAME(trace, "faas.cold_start", "`fn`, `init` (µs)")
NTCO_OBS_NAME(trace, "faas.complete", "`fn`, `exec`, `queue_wait`, `cold`, `cost` (nano-USD)")
NTCO_OBS_NAME(trace, "faas.preempted", "`fn`, `exec`, `forced`")
NTCO_OBS_NAME(trace, "faas.checkpoint", "`fn`, `queued`")

// --- core offload controller ----------------------------------------------
NTCO_OBS_NAME(trace, "ctl.run.begin", "`app`, `components`, `remote`")
NTCO_OBS_NAME(trace, "ctl.run.end", "`makespan`, `failed`, `cloud_cost`, `remote_invocations`, `cold_starts`, `transfer_failures`, `local_fallbacks`")
NTCO_OBS_NAME(trace, "ctl.transfer.attempt", "`dir`, `bytes`, `attempt`, `ok`, `elapsed`")
NTCO_OBS_NAME(trace, "ctl.transfer.retry", "`dir`, `bytes`, `next_attempt`")
NTCO_OBS_NAME(trace, "ctl.transfer.exhausted", "`dir`, `bytes`")
NTCO_OBS_NAME(trace, "ctl.fallback.local", "`component`")
NTCO_OBS_NAME(trace, "ctl.deploy.reuse", "`app`, `functions`")

// --- deferred scheduler ---------------------------------------------------
NTCO_OBS_NAME(trace, "sched.job.planned", "`job`, `start`, `deadline`, `est`")
NTCO_OBS_NAME(trace, "sched.job.spot_retry", "`job`, `wasted_cost`")
NTCO_OBS_NAME(trace, "sched.job.tier_fallback", "`job`")
NTCO_OBS_NAME(trace, "sched.job.complete", "`job`, `latency`, `met_deadline`, `cost`")
NTCO_OBS_NAME(trace, "sched.job.rejected", "`job` (negative slack)")

// --- network links --------------------------------------------------------
NTCO_OBS_NAME(trace, "net.link.loss", "`link`, `bytes`, `timeout`")

// --- open-loop arrival processes --------------------------------------------
NTCO_OBS_NAME(trace, "app.arrival.job", "`seq`, `hour`")
NTCO_OBS_NAME(trace, "app.arrival.vehicle_enter", "`vehicle`, `residence` (µs)")
NTCO_OBS_NAME(trace, "app.arrival.vehicle_exit", "`vehicle`, `requests`")

// --- broker serving layer -------------------------------------------------
NTCO_OBS_NAME(trace, "broker.plan_cache_hit", "`workload`, `hysteresis`")
NTCO_OBS_NAME(trace, "broker.plan_cache_miss", "`workload`")
NTCO_OBS_NAME(trace, "broker.admission_defer", "`retry_at`, `deadline`")
NTCO_OBS_NAME(trace, "broker.admission_shed", "`reason`, `deadline`, `est`")
NTCO_OBS_NAME(trace, "broker.batch_flush", "`group`, `jobs`, `sealed`")
NTCO_OBS_NAME(trace, "broker.twostage.fast_serve", "`workload`")
NTCO_OBS_NAME(trace, "broker.twostage.resolve", "`workload`, `agreed`")
NTCO_OBS_NAME(trace, "broker.request_rejected", "`field` (`app`/`battery`/`bandwidth_scale`/`slack`)")

// --- shared network fabric ------------------------------------------------
NTCO_OBS_NAME(trace, "fabric.flow.start", "`flow`, `path`, `dir` (`up`/`down`), `bytes`, `segments`, `share_bps`, `dur`")
NTCO_OBS_NAME(trace, "fabric.flow.finish", "`flow`, `bytes`, `dur`")

// --- edge–cloud continuum -------------------------------------------------
NTCO_OBS_NAME(trace, "continuum.job.submit", "`job`, `work`, `input`, `deadline`")
NTCO_OBS_NAME(trace, "continuum.job.rejected", "`deadline` (negative)")
NTCO_OBS_NAME(trace, "continuum.place", "`job`, `site`, `spilled`")
NTCO_OBS_NAME(trace, "continuum.migrate.begin", "`job`, `from`, `to`, `state`, `credit`")
NTCO_OBS_NAME(trace, "continuum.migrate.end", "`job`, `to`, `credit`")
NTCO_OBS_NAME(trace, "continuum.migrate.stay", "`job`, `site`, `credit`")
NTCO_OBS_NAME(trace, "continuum.migrate.restart", "`job`, `from`, `to`")
NTCO_OBS_NAME(trace, "continuum.migrate.reroute", "`job`, `from`, `to`")
NTCO_OBS_NAME(trace, "continuum.job.parked", "`job`")
NTCO_OBS_NAME(trace, "continuum.job.done", "`job`, `site`, `migrations`, `cost`, `deadline_met`")
NTCO_OBS_NAME(trace, "continuum.site.fail", "`site`, `graceful`")
NTCO_OBS_NAME(trace, "continuum.site.restore", "`site`, `parked`")

// --- counters ---------------------------------------------------------------
NTCO_OBS_NAME(counter, "serverless.invocations", "invocations accepted by the platform")
NTCO_OBS_NAME(counter, "serverless.cold_starts", "container cold starts")
NTCO_OBS_NAME(counter, "serverless.warm_reuses", "warm-container reuses")
NTCO_OBS_NAME(counter, "serverless.throttled", "invocations queued at the concurrency cap")
NTCO_OBS_NAME(counter, "serverless.preemptions", "executions cut short by a spot draw or a checkpoint")
NTCO_OBS_NAME(counter, "core.runs", "controller runs finished")
NTCO_OBS_NAME(counter, "core.run_failures", "runs aborted by a lost download")
NTCO_OBS_NAME(counter, "core.local_fallbacks", "components re-homed to the UE after an upload failed")
NTCO_OBS_NAME(counter, "core.transfer_failures", "failed radio attempts, retried or not")
NTCO_OBS_NAME(counter, "core.plan_deploys", "distinct plan fingerprints deployed")
NTCO_OBS_NAME(counter, "core.plan_reuses", "deployments skipped via the fingerprint memo")
NTCO_OBS_NAME(counter, "sched.jobs", "jobs run to completion")
NTCO_OBS_NAME(counter, "sched.deadline_misses", "jobs finishing past their deadline")
NTCO_OBS_NAME(counter, "sched.spot_attempts", "spot-tier execution attempts")
NTCO_OBS_NAME(counter, "sched.spot_preemptions", "spot attempts cut short")
NTCO_OBS_NAME(counter, "sched.fallbacks", "jobs falling back to on-demand")
NTCO_OBS_NAME(counter, "sched.rejected", "malformed jobs rejected at submit()")
NTCO_OBS_NAME(counter, "broker.requests", "serve() requests")
NTCO_OBS_NAME(counter, "broker.completed", "requests that completed")
NTCO_OBS_NAME(counter, "broker.failed", "requests that failed")
NTCO_OBS_NAME(counter, "broker.rejected", "malformed requests rejected at serve()")
NTCO_OBS_NAME(counter, "broker.cache.hits", "exact plan-cache hits")
NTCO_OBS_NAME(counter, "broker.cache.hysteresis_hits", "neighbour-key hits within the hysteresis band")
NTCO_OBS_NAME(counter, "broker.cache.misses", "plan-cache misses")
NTCO_OBS_NAME(counter, "broker.cache.evictions", "LRU evictions")
NTCO_OBS_NAME(counter, "broker.cache.expiries", "TTL expiries")
NTCO_OBS_NAME(counter, "broker.admission.admitted", "requests admitted by the token bucket")
NTCO_OBS_NAME(counter, "broker.admission.deferrals", "defer verdicts with a retry quote (a request may defer more than once)")
NTCO_OBS_NAME(counter, "broker.admission.shed", "requests shed")
NTCO_OBS_NAME(counter, "app.arrival.jobs", "arrivals generated by the open-loop sources")
NTCO_OBS_NAME(counter, "broker.twostage.fast_serves", "misses served by the stage-1 heuristic plan")
NTCO_OBS_NAME(counter, "broker.twostage.resolves", "asynchronous exact solves completed")
NTCO_OBS_NAME(counter, "broker.twostage.agreements", "exact solves that confirmed the heuristic placement")
NTCO_OBS_NAME(counter, "broker.batch.batches", "batches flushed")
NTCO_OBS_NAME(counter, "broker.batch.jobs", "jobs dispatched through batches")
NTCO_OBS_NAME(counter, "broker.batch.sealed", "batches sealed at capacity")
NTCO_OBS_NAME(counter, "continuum.jobs", "jobs submitted to the federation")
NTCO_OBS_NAME(counter, "continuum.rejected", "malformed jobs rejected at submit()")
NTCO_OBS_NAME(counter, "continuum.completed", "jobs completed")
NTCO_OBS_NAME(counter, "continuum.deadline_misses", "jobs finishing past their deadline")
NTCO_OBS_NAME(counter, "continuum.migrations", "live migrations")
NTCO_OBS_NAME(counter, "continuum.restarts", "restarts from scratch")
NTCO_OBS_NAME(counter, "continuum.stay_puts", "migration evaluations that chose to stay")
NTCO_OBS_NAME(counter, "continuum.spillovers", "placements spilled past the preferred tier")
NTCO_OBS_NAME(counter, "continuum.reroutes", "mid-transfer reroutes")
NTCO_OBS_NAME(counter, "continuum.parked", "jobs parked with nowhere to run")

// --- summaries --------------------------------------------------------------
NTCO_OBS_NAME(summary, "serverless.queue_wait_ms", "per-invocation queue wait (ms)")
NTCO_OBS_NAME(summary, "serverless.exec_ms", "per-invocation execution time (ms)")
NTCO_OBS_NAME(summary, "serverless.init_ms", "cold-start init time (ms)")
NTCO_OBS_NAME(summary, "core.makespan_ms", "end-to-end run makespan (ms)")
NTCO_OBS_NAME(summary, "core.cloud_cost_usd", "per-run cloud cost (USD)")
NTCO_OBS_NAME(summary, "core.device_energy_j", "per-run device energy (J)")
NTCO_OBS_NAME(summary, "sched.completion_latency_s", "submit-to-complete latency (s)")
NTCO_OBS_NAME(summary, "sched.deferral_s", "planned deferral before start (s)")
NTCO_OBS_NAME(summary, "sched.job_cost_usd", "per-job cost (USD)")
NTCO_OBS_NAME(summary, "broker.decision_us", "serve() decision latency (µs)")
NTCO_OBS_NAME(summary, "broker.job_cost_usd", "per-job cost (USD)")
NTCO_OBS_NAME(summary, "broker.completion_s", "request completion time (s)")
NTCO_OBS_NAME(summary, "continuum.completion_ms", "job completion time (ms)")
NTCO_OBS_NAME(summary, "continuum.job_cost_usd", "per-job cost (USD)")
};

#undef NTCO_OBS_NAME

// Both loops test the length before the text: that keeps the duplicate
// check below cheap enough to run in every TU that includes this file.
// Neither compares a pointer with null, which GCC cannot evaluate at compile
// time under -fsanitize=undefined.

/// The kind `name` is registered as, or nullopt.
constexpr std::optional<NameKind> registered_kind(std::string_view name) {
  for (const NameRow& row : kNameRegistry)
    if (row.name.size() == name.size() && row.name == name) return row.kind;
  return std::nullopt;
}

namespace detail {

constexpr bool names_are_unique() {
  constexpr std::size_t n = sizeof kNameRegistry / sizeof kNameRegistry[0];
  for (std::size_t i = 1; i < n; ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (kNameRegistry[i].name.size() == kNameRegistry[j].name.size() &&
          kNameRegistry[i].name == kNameRegistry[j].name)
        return false;
  return true;
}
static_assert(names_are_unique(), "a telemetry name is registered twice");

// Deliberately not constexpr: a Name constructor that reaches one of these
// is not a constant expression, so the literal fails to compile at its call
// site and the error names the reason.
inline void telemetry_name_is_not_registered() {}
inline void telemetry_name_is_registered_as_another_kind() {}
}  // namespace detail

/// A name outside the registry, for tests that mint their own. It converts
/// to any `Name<K>` unchecked; tests/source_bans_test.cpp keeps it out of
/// src/.
struct UnregisteredName {
  constexpr explicit UnregisteredName(std::string_view n) : name(n) {}
  std::string_view name;
};

/// A telemetry name of kind `K`: a string literal converts to it only when
/// the registry holds that literal as a `K`.
template <NameKind K>
class Name {
 public:
  consteval Name(const char* literal) : view_(literal) {
    const std::optional<NameKind> kind = registered_kind(view_);
    if (!kind)
      detail::telemetry_name_is_not_registered();
    else if (*kind != K)
      detail::telemetry_name_is_registered_as_another_kind();
  }
  constexpr Name(UnregisteredName n) : view_(n.name) {}

  [[nodiscard]] constexpr std::string_view view() const { return view_; }

 private:
  std::string_view view_;
};

using TraceName = Name<NameKind::trace>;
using CounterName = Name<NameKind::counter>;
using SummaryName = Name<NameKind::summary>;

}  // namespace ntco::obs
