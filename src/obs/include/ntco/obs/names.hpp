#pragma once

#include <string_view>

/// \file names.hpp
/// Central registry of every telemetry name the tree emits — the single
/// source of truth for `obs` trace-event and metric names.
///
/// ntco-lint R7 enforces the contract in both directions: every string
/// literal reaching `obs::emit` / `trace_event` / `counter` / `gauge` /
/// `summary` / `histogram` under src/ must appear here with the matching
/// kind, and every row here must be emitted somewhere in the scanned tree
/// (dead rows are diagnostics). DESIGN.md's trace/metric tables are
/// generated from this file via `ntco-lint --dump-names`, never edited by
/// hand.
///
/// Each row also declares a usable `std::string_view` constant, so tests
/// and tools can reference names without re-typing the literal:
///
///   NTCO_OBS_NAME(kIdent, kind, "dotted.name", "`field`, `field` notes")
///
/// `kind` is one of: trace, counter, gauge, summary, histogram. The fields
/// column documents fields in emission order for traces, units/notes for
/// metrics; it feeds the generated markdown verbatim.

#define NTCO_OBS_NAME(ident, kind, name, fields) \
  inline constexpr std::string_view ident = name;

namespace ntco::obs::names {

// --- sim: event kernel ----------------------------------------------------
NTCO_OBS_NAME(kSimEventScheduled, trace, "sim.event.scheduled", "`seq`, `at` (µs)")
NTCO_OBS_NAME(kSimEventFired, trace, "sim.event.fired", "`seq`")
NTCO_OBS_NAME(kSimEventCancelled, trace, "sim.event.cancelled", "`seq`")

// --- serverless platform --------------------------------------------------
NTCO_OBS_NAME(kFaasInvoke, trace, "faas.invoke", "`fn`, `work`, `tier`")
NTCO_OBS_NAME(kFaasResume, trace, "faas.resume", "`fn`, `work`, `credit`, `tier`")
NTCO_OBS_NAME(kFaasThrottled, trace, "faas.throttled", "`fn`, `queue_depth`")
NTCO_OBS_NAME(kFaasWarmReuse, trace, "faas.warm_reuse", "`fn`, `provisioned`")
NTCO_OBS_NAME(kFaasColdStart, trace, "faas.cold_start", "`fn`, `init` (µs)")
NTCO_OBS_NAME(kFaasComplete, trace, "faas.complete", "`fn`, `exec`, `queue_wait`, `cold`, `cost` (nano-USD)")
NTCO_OBS_NAME(kFaasPreempted, trace, "faas.preempted", "`fn`, `exec`")
NTCO_OBS_NAME(kFaasCheckpoint, trace, "faas.checkpoint", "`fn`, `queued`")

// --- core offload controller ----------------------------------------------
NTCO_OBS_NAME(kCtlRunBegin, trace, "ctl.run.begin", "`app`, `components`, `remote`")
NTCO_OBS_NAME(kCtlRunEnd, trace, "ctl.run.end", "`makespan`, `failed`, `cloud_cost`, `remote_invocations`, `cold_starts`, `transfer_failures`, `local_fallbacks`")
NTCO_OBS_NAME(kCtlTransferAttempt, trace, "ctl.transfer.attempt", "`dir`, `bytes`, `attempt`, `ok`, `elapsed`")
NTCO_OBS_NAME(kCtlTransferRetry, trace, "ctl.transfer.retry", "`dir`, `bytes`, `next_attempt`")
NTCO_OBS_NAME(kCtlTransferExhausted, trace, "ctl.transfer.exhausted", "`dir`, `bytes`")
NTCO_OBS_NAME(kCtlFallbackLocal, trace, "ctl.fallback.local", "`component`")
NTCO_OBS_NAME(kCtlDeployReuse, trace, "ctl.deploy.reuse", "`app`, `functions`")

// --- deferred scheduler ---------------------------------------------------
NTCO_OBS_NAME(kSchedJobPlanned, trace, "sched.job.planned", "`job`, `start`, `deadline`, `est`")
NTCO_OBS_NAME(kSchedJobSpotRetry, trace, "sched.job.spot_retry", "`job`, `wasted_cost`")
NTCO_OBS_NAME(kSchedJobTierFallback, trace, "sched.job.tier_fallback", "`job`")
NTCO_OBS_NAME(kSchedJobComplete, trace, "sched.job.complete", "`job`, `latency`, `met_deadline`, `cost`")

// --- network links --------------------------------------------------------
NTCO_OBS_NAME(kNetLinkState, trace, "net.link.state", "`link`, `state` (`good`/`bad`)")
NTCO_OBS_NAME(kNetLinkLoss, trace, "net.link.loss", "`link`, `bytes`, `timeout`")

// --- open-loop arrival processes --------------------------------------------
NTCO_OBS_NAME(kAppArrivalJob, trace, "app.arrival.job", "`seq`, `hour`")
NTCO_OBS_NAME(kAppArrivalVehicleEnter, trace, "app.arrival.vehicle_enter", "`vehicle`, `residence` (µs)")
NTCO_OBS_NAME(kAppArrivalVehicleExit, trace, "app.arrival.vehicle_exit", "`vehicle`, `requests`")

// --- broker serving layer -------------------------------------------------
NTCO_OBS_NAME(kBrokerPlanCacheHit, trace, "broker.plan_cache_hit", "`workload`, `hysteresis`")
NTCO_OBS_NAME(kBrokerPlanCacheMiss, trace, "broker.plan_cache_miss", "`workload`")
NTCO_OBS_NAME(kBrokerAdmissionDefer, trace, "broker.admission_defer", "`retry_at`, `deadline`")
NTCO_OBS_NAME(kBrokerAdmissionShed, trace, "broker.admission_shed", "`reason`, `deadline`, `est`")
NTCO_OBS_NAME(kBrokerBatchFlush, trace, "broker.batch_flush", "`group`, `jobs`, `sealed`")
NTCO_OBS_NAME(kBrokerTwostageFastServe, trace, "broker.twostage.fast_serve", "`workload`")
NTCO_OBS_NAME(kBrokerTwostageResolve, trace, "broker.twostage.resolve", "`workload`, `agreed`")

// --- shared network fabric ------------------------------------------------
NTCO_OBS_NAME(kFabricFlowStart, trace, "fabric.flow.start", "`flow`, `path`, `dir` (`up`/`down`), `bytes`, `segments`, `share_bps`, `dur`")
NTCO_OBS_NAME(kFabricFlowFinish, trace, "fabric.flow.finish", "`flow`, `bytes`, `dur`")

// --- edge–cloud continuum -------------------------------------------------
NTCO_OBS_NAME(kContinuumJobSubmit, trace, "continuum.job.submit", "`job`, `work`, `input`, `deadline`")
NTCO_OBS_NAME(kContinuumPlace, trace, "continuum.place", "`job`, `site`, `spilled`")
NTCO_OBS_NAME(kContinuumMigrateBegin, trace, "continuum.migrate.begin", "`job`, `from`, `to`, `state`, `credit`")
NTCO_OBS_NAME(kContinuumMigrateEnd, trace, "continuum.migrate.end", "`job`, `to`, `credit`")
NTCO_OBS_NAME(kContinuumMigrateStay, trace, "continuum.migrate.stay", "`job`, `site`, `credit`")
NTCO_OBS_NAME(kContinuumMigrateRestart, trace, "continuum.migrate.restart", "`job`, `from`, `to`")
NTCO_OBS_NAME(kContinuumMigrateReroute, trace, "continuum.migrate.reroute", "`job`, `from`, `to`")
NTCO_OBS_NAME(kContinuumJobParked, trace, "continuum.job.parked", "`job`")
NTCO_OBS_NAME(kContinuumJobDone, trace, "continuum.job.done", "`job`, `site`, `migrations`, `cost`, `deadline_met`")
NTCO_OBS_NAME(kContinuumSiteFail, trace, "continuum.site.fail", "`site`, `graceful`")
NTCO_OBS_NAME(kContinuumSiteRestore, trace, "continuum.site.restore", "`site`, `parked`")
NTCO_OBS_NAME(kContinuumMobilityPhase, trace, "continuum.mobility.phase", "`tech`, `preferred`")

// --- counters ---------------------------------------------------------------
NTCO_OBS_NAME(kServerlessInvocations, counter, "serverless.invocations", "invocations accepted by the platform")
NTCO_OBS_NAME(kServerlessColdStarts, counter, "serverless.cold_starts", "container cold starts")
NTCO_OBS_NAME(kServerlessWarmReuses, counter, "serverless.warm_reuses", "warm-container reuses")
NTCO_OBS_NAME(kServerlessThrottled, counter, "serverless.throttled", "invocations queued at the concurrency cap")
NTCO_OBS_NAME(kServerlessPreemptions, counter, "serverless.preemptions", "spot preemptions")
NTCO_OBS_NAME(kCoreRuns, counter, "core.runs", "controller runs started")
NTCO_OBS_NAME(kCoreRunFailures, counter, "core.run_failures", "runs that failed outright")
NTCO_OBS_NAME(kCoreLocalFallbacks, counter, "core.local_fallbacks", "components re-run locally after remote failure")
NTCO_OBS_NAME(kCoreTransferFailures, counter, "core.transfer_failures", "transfers exhausted after retries")
NTCO_OBS_NAME(kCorePlanDeploys, counter, "core.plan_deploys", "distinct plan fingerprints deployed")
NTCO_OBS_NAME(kCorePlanReuses, counter, "core.plan_reuses", "deployments skipped via the fingerprint memo")
NTCO_OBS_NAME(kSchedJobs, counter, "sched.jobs", "jobs accepted by the deferred executor")
NTCO_OBS_NAME(kSchedDeadlineMisses, counter, "sched.deadline_misses", "jobs finishing past their deadline")
NTCO_OBS_NAME(kSchedSpotAttempts, counter, "sched.spot_attempts", "spot-tier execution attempts")
NTCO_OBS_NAME(kSchedSpotPreemptions, counter, "sched.spot_preemptions", "spot attempts cut short")
NTCO_OBS_NAME(kSchedFallbacks, counter, "sched.fallbacks", "jobs falling back to on-demand")
NTCO_OBS_NAME(kBrokerRequests, counter, "broker.requests", "serve() requests")
NTCO_OBS_NAME(kBrokerCompleted, counter, "broker.completed", "requests that completed")
NTCO_OBS_NAME(kBrokerFailed, counter, "broker.failed", "requests that failed")
NTCO_OBS_NAME(kBrokerCacheHits, counter, "broker.cache.hits", "exact plan-cache hits")
NTCO_OBS_NAME(kBrokerCacheHysteresisHits, counter, "broker.cache.hysteresis_hits", "neighbour-key hits within the hysteresis band")
NTCO_OBS_NAME(kBrokerCacheMisses, counter, "broker.cache.misses", "plan-cache misses")
NTCO_OBS_NAME(kBrokerCacheEvictions, counter, "broker.cache.evictions", "LRU evictions")
NTCO_OBS_NAME(kBrokerCacheExpiries, counter, "broker.cache.expiries", "TTL expiries")
NTCO_OBS_NAME(kBrokerAdmissionAdmitted, counter, "broker.admission.admitted", "requests admitted by the token bucket")
NTCO_OBS_NAME(kBrokerAdmissionDeferrals, counter, "broker.admission.deferrals", "requests deferred with a retry quote")
NTCO_OBS_NAME(kBrokerAdmissionShed, counter, "broker.admission.shed", "requests shed")
NTCO_OBS_NAME(kAppArrivalJobs, counter, "app.arrival.jobs", "arrivals generated by the open-loop sources")
NTCO_OBS_NAME(kBrokerTwostageFastServes, counter, "broker.twostage.fast_serves", "misses served by the stage-1 heuristic plan")
NTCO_OBS_NAME(kBrokerTwostageResolves, counter, "broker.twostage.resolves", "asynchronous exact solves completed")
NTCO_OBS_NAME(kBrokerTwostageAgreements, counter, "broker.twostage.agreements", "exact solves that confirmed the heuristic placement")
NTCO_OBS_NAME(kBrokerBatchBatches, counter, "broker.batch.batches", "batches flushed")
NTCO_OBS_NAME(kBrokerBatchJobs, counter, "broker.batch.jobs", "jobs dispatched through batches")
NTCO_OBS_NAME(kBrokerBatchSealed, counter, "broker.batch.sealed", "batches sealed at capacity")
NTCO_OBS_NAME(kContinuumJobs, counter, "continuum.jobs", "jobs submitted to the federation")
NTCO_OBS_NAME(kContinuumCompleted, counter, "continuum.completed", "jobs completed")
NTCO_OBS_NAME(kContinuumDeadlineMisses, counter, "continuum.deadline_misses", "jobs finishing past their deadline")
NTCO_OBS_NAME(kContinuumMigrations, counter, "continuum.migrations", "live migrations")
NTCO_OBS_NAME(kContinuumRestarts, counter, "continuum.restarts", "restarts from scratch")
NTCO_OBS_NAME(kContinuumStayPuts, counter, "continuum.stay_puts", "migration evaluations that chose to stay")
NTCO_OBS_NAME(kContinuumSpillovers, counter, "continuum.spillovers", "placements spilled past the preferred tier")
NTCO_OBS_NAME(kContinuumReroutes, counter, "continuum.reroutes", "mid-transfer reroutes")
NTCO_OBS_NAME(kContinuumParked, counter, "continuum.parked", "jobs parked with nowhere to run")

// --- summaries --------------------------------------------------------------
NTCO_OBS_NAME(kServerlessQueueWaitMs, summary, "serverless.queue_wait_ms", "per-invocation queue wait (ms)")
NTCO_OBS_NAME(kServerlessExecMs, summary, "serverless.exec_ms", "per-invocation execution time (ms)")
NTCO_OBS_NAME(kServerlessInitMs, summary, "serverless.init_ms", "cold-start init time (ms)")
NTCO_OBS_NAME(kCoreMakespanMs, summary, "core.makespan_ms", "end-to-end run makespan (ms)")
NTCO_OBS_NAME(kCoreCloudCostUsd, summary, "core.cloud_cost_usd", "per-run cloud cost (USD)")
NTCO_OBS_NAME(kCoreDeviceEnergyJ, summary, "core.device_energy_j", "per-run device energy (J)")
NTCO_OBS_NAME(kSchedCompletionLatencyS, summary, "sched.completion_latency_s", "submit-to-complete latency (s)")
NTCO_OBS_NAME(kSchedDeferralS, summary, "sched.deferral_s", "planned deferral before start (s)")
NTCO_OBS_NAME(kSchedJobCostUsd, summary, "sched.job_cost_usd", "per-job cost (USD)")
NTCO_OBS_NAME(kBrokerDecisionUs, summary, "broker.decision_us", "serve() decision latency (µs)")
NTCO_OBS_NAME(kBrokerJobCostUsd, summary, "broker.job_cost_usd", "per-job cost (USD)")
NTCO_OBS_NAME(kBrokerCompletionS, summary, "broker.completion_s", "request completion time (s)")
NTCO_OBS_NAME(kContinuumCompletionMs, summary, "continuum.completion_ms", "job completion time (ms)")
NTCO_OBS_NAME(kContinuumJobCostUsd, summary, "continuum.job_cost_usd", "per-job cost (USD)")

}  // namespace ntco::obs::names
