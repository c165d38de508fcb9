#include "ntco/core/controller.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ntco/alloc/memory_optimizer.hpp"

namespace ntco::core {
namespace {

/// Memory sweep granularity of the allocator.
constexpr DataSize kMemoryStep = DataSize::megabytes(128);
/// Expected fraction of remote invocations that hit a warm instance;
/// cold-start time is amortised into the planning overhead at (1 - rate).
constexpr double kExpectedWarmRate = 0.8;
/// Per-invocation dispatch overhead excluded from cold starts.
constexpr Duration kDispatchOverhead = Duration::millis(5);

/// Appends `v` as a fixed-width field: its bytes.
void append_field(std::string& out, std::uint64_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

/// Appends `s` behind its length, so the field's end is known.
void append_field(std::string& out, std::string_view s) {
  append_field(out, std::uint64_t{s.size()});
  out += s;
}

}  // namespace

OffloadController::OffloadController(sim::Simulator& sim,
                                     serverless::Platform& platform,
                                     device::Device& device,
                                     net::Transport& path,
                                     ControllerConfig cfg)
    : sim_(sim), platform_(platform), device_(device), path_(path), cfg_(cfg) {}

void OffloadController::attach_observer(obs::TraceSink* trace,
                                        obs::MetricsRegistry* metrics) {
  trace_ = trace;
  m_ = {};
  if (metrics != nullptr) {
    m_.makespan_ms = &metrics->summary("core.makespan_ms");
    m_.cloud_cost_usd = &metrics->summary("core.cloud_cost_usd");
    m_.device_energy_j = &metrics->summary("core.device_energy_j");
  }
}

void OffloadController::publish(obs::MetricsRegistry& metrics) const {
  metrics.counter("core.runs").add(stats_.runs);
  metrics.counter("core.run_failures").add(stats_.run_failures);
  metrics.counter("core.local_fallbacks").add(stats_.local_fallbacks);
  metrics.counter("core.transfer_failures").add(stats_.transfer_failures);
  metrics.counter("core.plan_deploys").add(stats_.plan_deploys);
  metrics.counter("core.plan_reuses").add(stats_.plan_reuses);
}

void OffloadController::observe_run_end(const ExecutionReport& r) {
  ++stats_.runs;
  if (r.failed) ++stats_.run_failures;
  stats_.local_fallbacks += r.local_fallbacks;
  stats_.transfer_failures += r.transfer_failures;
  if (m_.makespan_ms) {
    m_.makespan_ms->add(r.makespan.to_millis());
    m_.cloud_cost_usd->add(r.cloud_cost.to_usd());
    m_.device_energy_j->add(r.device_energy.to_joules());
  }
  if (trace_)
    obs::emit(trace_, sim_.now(), "ctl.run.end",
              {{"makespan", r.makespan},
               {"failed", r.failed},
               {"cloud_cost", r.cloud_cost},
               {"remote_invocations", r.remote_invocations},
               {"cold_starts", r.cold_starts},
               {"transfer_failures", r.transfer_failures},
               {"local_fallbacks", r.local_fallbacks}});
}

partition::Environment OffloadController::make_environment(
    const app::TaskGraph& g) const {
  partition::Environment env;
  env.device = device_.spec();

  const DataSize ref = platform_.quantize_memory(kReferenceMemory);
  env.remote_speed =
      platform_.config().core_speed * platform_.cpu_share(ref);

  // Amortise the expected cold-start share of the average image into the
  // per-invocation overhead.
  DataSize mean_image;
  std::size_t offloadable = 0;
  for (const auto& c : g.components()) {
    if (c.pinned_local) continue;
    mean_image += c.image;
    ++offloadable;
  }
  Duration cold;
  if (offloadable > 0)
    cold = platform_.cold_start_time(
        DataSize::bytes(mean_image.count_bytes() / offloadable));
  env.remote_overhead = kDispatchOverhead + cold * (1.0 - kExpectedWarmRate);

  const double ref_gb = static_cast<double>(ref.count_bytes()) / 1e9;
  env.remote_price_per_second =
      platform_.config().price_per_gb_second * ref_gb;
  env.price_per_invocation = platform_.config().price_per_request;

  const net::PathSpec& spec = path_.spec();
  env.uplink = spec.up.rate;
  env.downlink = spec.down.rate;
  env.uplink_latency = spec.up.latency;
  env.downlink_latency = spec.down.latency;
  return env;
}

DeploymentPlan OffloadController::prepare(
    const app::TaskGraph& g, const partition::Partitioner& partitioner) {
  return prepare(g, partitioner, make_environment(g));
}

DataSize OffloadController::size_memory(const app::Component& comp,
                                        Frequency remote_speed) {
  // Keep the allocation coherent with the plan: the function must run no
  // slower than the speed the partitioner assumed (plus 5% tolerance).
  const Duration deadline = comp.work / remote_speed * 1.05;
  // choose() rejects a fraction outside [0, 1]; check it before the lookup,
  // where a NaN key would match an entry with the same work and floor.
  NTCO_EXPECTS(comp.parallel_fraction >= 0.0 && comp.parallel_fraction <= 1.0);
  const SizingKey key{comp.work.value(), comp.memory.count_bytes(),
                      std::bit_cast<std::uint64_t>(comp.parallel_fraction),
                      deadline.count_micros()};
  const auto at = std::lower_bound(
      sized_.begin(), sized_.end(), key,
      [](const Sized& e, const SizingKey& k) { return e.key < k; });
  if (at != sized_.end() && at->key == key) return at->memory;
  const DataSize chosen =
      alloc::MemoryOptimizer(platform_)
          .choose(comp.work, comp.memory, comp.parallel_fraction, deadline,
                  kMemoryStep)
          .chosen.memory;
  sized_.insert(at, Sized{key, chosen});
  return chosen;
}

DeploymentPlan OffloadController::prepare(
    const app::TaskGraph& g, const partition::Partitioner& partitioner,
    const partition::Environment& env) {
  DeploymentPlan plan;
  plan.order = g.topological_order();  // a cycle throws before any deploy
  plan.environment = env;
  const partition::CostModel model(g, plan.environment, cfg_.objective);
  plan.partition = partitioner.plan(model);
  NTCO_ENSURES(plan.partition.respects_pins(g));
  plan.predicted = model.breakdown(plan.partition);

  plan.function_of.assign(g.component_count(),
                          DeploymentPlan::kInvalidFunction);
  plan.memory_of.assign(g.component_count(), DataSize::zero());

  // Size every remote component's function first; the resulting sizes (not
  // the environment that produced them) are what deployment must be
  // idempotent over.
  fingerprint_.clear();
  append_field(fingerprint_, g.name());
  append_field(fingerprint_, std::uint64_t{g.component_count()});
  plan.partition.append_to(fingerprint_);
  for (app::ComponentId id = 0; id < g.component_count(); ++id) {
    if (!plan.partition.is_remote(id)) continue;
    const auto& comp = g.component(id);
    plan.memory_of[id] = size_memory(comp, plan.environment.remote_speed);
    append_field(fingerprint_, comp.name);
    append_field(fingerprint_, plan.memory_of[id].count_bytes());
    append_field(fingerprint_, comp.image.count_bytes());
  }

  const auto memo = deployed_.find(std::string_view(fingerprint_));
  if (memo != deployed_.end()) {
    // Same functions, same sizes: reuse the deployment (and its warm
    // instances) instead of registering cold duplicates.
    NTCO_ENSURES(memo->second.size() == plan.partition.remote_count());
    auto fn = memo->second.begin();
    for (app::ComponentId id = 0; id < g.component_count(); ++id)
      if (plan.partition.is_remote(id)) plan.function_of[id] = *fn++;
    ++stats_.plan_reuses;
    if (trace_)
      obs::emit(trace_, sim_.now(), "ctl.deploy.reuse",
                {{"app", std::string_view(g.name())},
                 {"functions", memo->second.size()}});
    return plan;
  }

  std::vector<serverless::FunctionId> ids;
  ids.reserve(plan.partition.remote_count());
  for (app::ComponentId id = 0; id < g.component_count(); ++id) {
    if (!plan.partition.is_remote(id)) continue;
    const auto& comp = g.component(id);
    plan.function_of[id] = platform_.deploy(serverless::FunctionSpec{
        g.name() + "/" + comp.name, plan.memory_of[id], comp.image,
        comp.parallel_fraction});
    ids.push_back(plan.function_of[id]);
  }
  deployed_.emplace(fingerprint_, std::move(ids));
  ++stats_.plan_deploys;
  return plan;
}

OffloadController::RadioResult OffloadController::radio_with_retries(
    bool upload, DataSize bytes, ExecutionReport& report) {
  const net::LinkDirection dir =
      upload ? net::LinkDirection::Up : net::LinkDirection::Down;
  RadioResult result;
  for (std::size_t attempt = 0; attempt <= kMaxTransferRetries; ++attempt) {
    const net::TransferAttempt a = path_.attempt(dir, bytes);
    result.elapsed += a.elapsed;
    report.transfer += a.elapsed;
    report.device_energy +=
        upload ? device_.tx_energy(a.elapsed) : device_.rx_energy(a.elapsed);
    if (trace_)
      obs::emit(trace_, sim_.now(), "ctl.transfer.attempt",
                {{"dir", upload ? "up" : "down"},
                 {"bytes", bytes},
                 {"attempt", attempt},
                 {"ok", a.ok},
                 {"elapsed", a.elapsed}});
    if (a.ok) {
      result.ok = true;
      return result;
    }
    ++report.transfer_failures;
    if (trace_ && attempt < kMaxTransferRetries)
      obs::emit(trace_, sim_.now(), "ctl.transfer.retry",
                {{"dir", upload ? "up" : "down"},
                 {"bytes", bytes},
                 {"next_attempt", attempt + 1}});
  }
  result.ok = false;
  if (trace_)
    obs::emit(trace_, sim_.now(), "ctl.transfer.exhausted",
              {{"dir", upload ? "up" : "down"}, {"bytes", bytes}});
  return result;
}

void OffloadController::execute_async(const DeploymentPlan& plan,
                                      const app::TaskGraph& truth, Done done) {
  NTCO_EXPECTS(done != nullptr);
  NTCO_EXPECTS(plan.partition.placement.size() == truth.component_count());
  NTCO_EXPECTS(plan.order.size() == truth.component_count());
  if (trace_)
    obs::emit(trace_, sim_.now(), "ctl.run.begin",
              {{"app", std::string_view(truth.name())},
               {"components", truth.component_count()},
               {"remote", plan.partition.remote_count()}});
  const RunId id = runs_.acquire();
  Run& run = runs_[id];
  run.plan = &plan;
  run.truth = &truth;
  run.next = 0;
  run.begin = sim_.now();
  run.report = {};
  run.done = std::move(done);
  run.ran_remote.assign(truth.component_count(), false);
  step(id);
}

void OffloadController::step(RunId id) {
  Run& run = runs_[id];
  const auto& plan = *run.plan;
  if (run.next == plan.order.size()) {
    run.report.makespan = sim_.now() - run.begin;
    finish(id);
    return;
  }

  const app::ComponentId v = plan.order[run.next++];
  const auto& g = *run.truth;

  // Phase 1 — decide where v actually runs. If it is planned remote, its
  // local inputs must be uploaded first; an unrecoverable upload failure
  // re-homes v to the UE (the data never left the device, so this is
  // always safe).
  bool remote = plan.is_remote(v);
  Duration transfer;
  if (remote) {
    for (const std::size_t fi : g.in_flows(v)) {
      const auto& f = g.flow(fi);
      if (run.ran_remote[f.from]) continue;  // already in the cloud
      const RadioResult r =
          radio_with_retries(/*upload=*/true, f.bytes, run.report);
      transfer += r.elapsed;
      if (!r.ok) {
        remote = false;
        ++run.report.local_fallbacks;
        if (trace_)
          obs::emit(trace_, sim_.now(), "ctl.fallback.local",
                    {{"component", v}});
        break;
      }
    }
  }

  // Phase 2 — if v runs locally, inputs produced in the cloud must come
  // down. A final download failure strands the data remotely: the run
  // fails.
  if (!remote) {
    for (const std::size_t fi : g.in_flows(v)) {
      const auto& f = g.flow(fi);
      if (!run.ran_remote[f.from]) continue;
      const RadioResult r =
          radio_with_retries(/*upload=*/false, f.bytes, run.report);
      transfer += r.elapsed;
      if (!r.ok) {
        run.report.failed = true;
        run.report.makespan = (sim_.now() + transfer) - run.begin;
        finish(id);
        return;
      }
      run.report.cloud_cost +=
          plan.environment.egress_price_per_gb *
          (static_cast<double>(f.bytes.count_bytes()) / 1e9);
    }
  }

  run.ran_remote[v] = remote;

  if (!remote) {
    const Duration exec = device_.exec_time(g.component(v).work);
    run.report.local_compute += exec;
    run.report.device_energy += device_.exec_energy(g.component(v).work);
    sim_.schedule_after(transfer + exec, [this, id] { step(id); });
    return;
  }

  NTCO_EXPECTS(plan.function_for(v).has_value());
  sim_.schedule_after(transfer, [this, id] { invoke_remote(id); });
}

void OffloadController::invoke_remote(RunId id) {
  Run& run = runs_[id];
  run.invoked = sim_.now();
  const app::ComponentId v = run.plan->order[run.next - 1];
  platform_.invoke(*run.plan->function_for(v), run.truth->component(v).work,
                   [this, id](const serverless::InvocationResult& r) {
                     remote_done(id, r);
                   });
}

void OffloadController::remote_done(RunId id,
                                    const serverless::InvocationResult& r) {
  Run& run = runs_[id];
  const Duration waited = r.finished - run.invoked;
  run.report.waiting += waited;
  // The UE idles while the cloud computes.
  run.report.device_energy += device_.idle_energy(waited);
  run.report.remote_compute += r.exec_time;
  run.report.cloud_cost += r.cost;
  ++run.report.remote_invocations;
  if (r.cold_start) ++run.report.cold_starts;
  step(id);
}

void OffloadController::finish(RunId id) {
  // Copy the report and the callback out first: `done` may start another
  // run, which can take this very slot.
  Run& run = runs_[id];
  const ExecutionReport report = run.report;
  const Done done = std::exchange(run.done, nullptr);
  runs_.release(id);
  observe_run_end(report);
  done(report);
}

ExecutionReport OffloadController::execute(const DeploymentPlan& plan,
                                           const app::TaskGraph& truth) {
  ExecutionReport report;
  bool done = false;
  execute_async(plan, truth, [&](const ExecutionReport& r) {
    report = r;
    done = true;
  });
  while (!done && sim_.step()) {
  }
  NTCO_ENSURES(done);
  return report;
}

}  // namespace ntco::core
