#include "ntco/serverless/platform.hpp"

#include <algorithm>
#include <cmath>

namespace ntco::serverless {

Platform::Platform(sim::Simulator& sim, PlatformConfig cfg)
    : sim_(sim), cfg_(std::move(cfg)), rng_(cfg_.seed) {
  if (cfg_.core_speed.is_zero())
    throw ConfigError("core_speed must be positive");
  if (cfg_.full_share_memory.is_zero())
    throw ConfigError("full_share_memory must be positive");
  if (cfg_.max_vcpus <= 0.0) throw ConfigError("max_vcpus must be positive");
  if (cfg_.min_memory.is_zero())
    throw ConfigError("min_memory must be positive");
  if (cfg_.min_memory > cfg_.max_memory)
    throw ConfigError("min_memory exceeds max_memory");
  if (cfg_.memory_quantum.is_zero())
    throw ConfigError("memory_quantum must be positive");
  if (cfg_.price_per_gb_second < Money::zero() ||
      cfg_.price_per_request < Money::zero() ||
      cfg_.provisioned_price_per_gb_second < Money::zero())
    throw ConfigError("prices must be non-negative");
  if (cfg_.billing_quantum <= Duration::zero())
    throw ConfigError("billing_quantum must be positive");
  if (cfg_.cold_start_base.is_negative())
    throw ConfigError("cold_start_base must be non-negative");
  if (cfg_.image_install_rate.is_zero())
    throw ConfigError("image_install_rate must be positive");
  if (cfg_.keep_alive.is_negative())
    throw ConfigError("keep_alive must be non-negative");
  if (cfg_.account_concurrency == 0)
    throw ConfigError("account_concurrency must be positive");
  validate_price_windows(cfg_.price_windows);
  if (cfg_.spot_price_multiplier <= 0.0 || cfg_.spot_price_multiplier > 1.0)
    throw ConfigError("spot_price_multiplier must lie in (0, 1]");
  if (cfg_.spot_mean_time_to_preempt.is_negative())
    throw ConfigError("spot_mean_time_to_preempt must be non-negative");
  provisioned_accrued_until_ = sim_.now();
}

FunctionId Platform::deploy(FunctionSpec spec) {
  if (spec.name.empty()) throw ConfigError("function name must be non-empty");
  if (spec.memory < cfg_.min_memory || spec.memory > cfg_.max_memory)
    throw ConfigError("function '" + spec.name +
                      "' memory outside provider limits");
  if (spec.memory.count_bytes() % cfg_.memory_quantum.count_bytes() != 0)
    throw ConfigError("function '" + spec.name +
                      "' memory not quantum-aligned; use quantize_memory()");
  if (spec.parallel_fraction < 0.0 || spec.parallel_fraction > 1.0)
    throw ConfigError("function '" + spec.name +
                      "' parallel_fraction outside [0, 1]");
  fns_.push_back(Function{std::move(spec), {}, 0, 0, 0, 0});
  return static_cast<FunctionId>(fns_.size() - 1);
}

void Platform::redeploy(FunctionId id, FunctionSpec spec) {
  NTCO_EXPECTS(id < fns_.size());
  if (spec.memory < cfg_.min_memory || spec.memory > cfg_.max_memory ||
      spec.memory.count_bytes() % cfg_.memory_quantum.count_bytes() != 0)
    throw ConfigError("redeploy of '" + spec.name + "': invalid memory");
  accrue_provisioned();
  Function& fn = fns_[id];
  // Invalidate every warm instance: next on-demand invocation is cold.
  for (const auto& inst : fn.idle) sim_.cancel(inst.expiry_event);
  fn.idle.clear();
  fn.provisioned_idle = 0;
  // Busy instances run the old version: they are torn down as they finish
  // (see complete()), so none of them counts as provisioned any more.
  fn.provisioned_total = 0;
  fn.spec = std::move(spec);
  ++fn.version;
  // Provisioned capacity is re-established for the new version immediately
  // (the provider pre-initialises the new instances before cutover).
  const std::size_t target = fn.provisioned_target;
  fn.provisioned_target = 0;
  set_provisioned_concurrency(id, target);
}

void Platform::set_provisioned_concurrency(FunctionId id, std::size_t n) {
  NTCO_EXPECTS(id < fns_.size());
  accrue_provisioned();
  Function& fn = fns_[id];
  fn.provisioned_target = n;
  if (fn.provisioned_total < n) {
    // Grow: create idle provisioned instances.
    fn.provisioned_idle += n - fn.provisioned_total;
    fn.provisioned_total = n;
  } else {
    // Shrink: retire idle provisioned instances now; busy ones retire on
    // completion (see finish_instance()).
    const std::size_t retired =
        std::min(fn.provisioned_idle, fn.provisioned_total - n);
    fn.provisioned_idle -= retired;
    fn.provisioned_total -= retired;
  }
}

void Platform::attach_observer(obs::TraceSink* trace,
                               obs::MetricsRegistry* metrics) {
  trace_ = trace;
  m_ = {};
  if (metrics != nullptr) {
    m_.queue_wait_ms = &metrics->summary("serverless.queue_wait_ms");
    m_.exec_ms = &metrics->summary("serverless.exec_ms");
    m_.init_ms = &metrics->summary("serverless.init_ms");
  }
}

void Platform::publish(obs::MetricsRegistry& metrics) const {
  metrics.counter("serverless.invocations").add(stats_.invocations);
  metrics.counter("serverless.cold_starts").add(stats_.cold_starts);
  metrics.counter("serverless.warm_reuses").add(stats_.warm_reuses);
  metrics.counter("serverless.throttled").add(stats_.throttled);
  metrics.counter("serverless.preemptions").add(stats_.preemptions);
}

InvocationId Platform::invoke(FunctionId id, Cycles work, Callback done,
                              Tier tier) {
  return enqueue(id, work, Duration::zero(), std::move(done), tier);
}

InvocationId Platform::resume(FunctionId id, Cycles work, Duration exec_credit,
                              Callback done, Tier tier) {
  NTCO_EXPECTS(!exec_credit.is_negative());
  return enqueue(id, work, exec_credit, std::move(done), tier);
}

InvocationId Platform::enqueue(FunctionId id, Cycles work,
                               Duration exec_credit, Callback done,
                               Tier tier) {
  NTCO_EXPECTS(id < fns_.size());
  NTCO_EXPECTS(done != nullptr);
  ++stats_.invocations;
  if (trace_) {
    if (exec_credit.is_zero())
      obs::emit(trace_, sim_.now(), "faas.invoke",
                {{"fn", id},
                 {"work", work.value()},
                 {"tier", tier == Tier::Spot ? "spot" : "on_demand"}});
    else
      obs::emit(trace_, sim_.now(), "faas.resume",
                {{"fn", id},
                 {"work", work.value()},
                 {"credit", exec_credit},
                 {"tier", tier == Tier::Spot ? "spot" : "on_demand"}});
  }
  if (busy_ >= cfg_.account_concurrency || queued_ > 0) {
    ++stats_.throttled;
    if (trace_)
      obs::emit(trace_, sim_.now(), "faas.throttled",
                {{"fn", id}, {"queue_depth", queued_}});
  }
  const InvocationId inv_id = invocations_.acquire();
  Invocation& inv = invocations_[inv_id];
  inv.done = std::move(done);
  inv.fn = id;
  inv.work = work;
  inv.submitted = sim_.now();
  inv.exec_credit = exec_credit;
  inv.tier = tier;
  inv.next_queued = kNoSlabId;
  inv.executing = false;
  if (queue_tail_ == kNoSlabId)
    queue_head_ = inv_id;
  else
    invocations_[queue_tail_].next_queued = inv_id;
  queue_tail_ = inv_id;
  ++queued_;
  pump();
  return inv_id;
}

const FunctionSpec& Platform::spec(FunctionId id) const {
  NTCO_EXPECTS(id < fns_.size());
  return fns_[id].spec;
}

DataSize Platform::quantize_memory(DataSize requested) const {
  const auto q = cfg_.memory_quantum.count_bytes();
  auto b = requested.count_bytes();
  b = std::max(b, cfg_.min_memory.count_bytes());
  b = ((b + q - 1) / q) * q;  // round up to quantum
  b = std::min(b, cfg_.max_memory.count_bytes());
  return DataSize::bytes(b);
}

double Platform::cpu_share(DataSize memory) const {
  NTCO_EXPECTS(!memory.is_zero());
  const double share = static_cast<double>(memory.count_bytes()) /
                       static_cast<double>(cfg_.full_share_memory.count_bytes());
  return std::min(share, cfg_.max_vcpus);
}

double Platform::speed_factor(DataSize memory,
                              double parallel_fraction) const {
  NTCO_EXPECTS(parallel_fraction >= 0.0 && parallel_fraction <= 1.0);
  const double share = cpu_share(memory);
  // Sub-vCPU configurations time-slice a single core: the function's
  // parallelism cannot help.
  if (share <= 1.0) return share;
  // Amdahl's law over `share` cores at full per-core speed.
  return 1.0 / ((1.0 - parallel_fraction) + parallel_fraction / share);
}

Duration Platform::exec_time(DataSize memory, Cycles work,
                             double parallel_fraction) const {
  return exec_time_at(speed_factor(memory, parallel_fraction), work);
}

Duration Platform::cold_start_time(DataSize image) const {
  return cfg_.cold_start_base + image / cfg_.image_install_rate;
}

double Platform::price_multiplier(TimePoint when) const {
  return price_multiplier_at(cfg_.price_windows, when);
}

Money Platform::invocation_cost(DataSize memory, Duration billed,
                                TimePoint when, Tier tier) const {
  NTCO_EXPECTS(!billed.is_negative());
  // Round the billed duration up to the billing quantum.
  const auto q = cfg_.billing_quantum.count_micros();
  const auto us = (billed.count_micros() + q - 1) / q * q;
  const double gb_seconds = static_cast<double>(memory.count_bytes()) / 1e9 *
                            static_cast<double>(us) / 1e6;
  const double tier_factor =
      tier == Tier::Spot ? cfg_.spot_price_multiplier : 1.0;
  return cfg_.price_per_gb_second *
             (gb_seconds * price_multiplier(when) * tier_factor) +
         cfg_.price_per_request;
}

void Platform::pump() {
  while (busy_ < cfg_.account_concurrency && queue_head_ != kNoSlabId) {
    const InvocationId id = queue_head_;
    unqueue(id);
    begin(id);
  }
}

void Platform::unqueue(InvocationId id) {
  InvocationId prev = kNoSlabId;
  for (InvocationId at = queue_head_; at != id;
       at = invocations_[at].next_queued)
    prev = at;
  const InvocationId next = invocations_[id].next_queued;
  if (prev == kNoSlabId)
    queue_head_ = next;
  else
    invocations_[prev].next_queued = next;
  if (queue_tail_ == id) queue_tail_ = prev;
  --queued_;
}

void Platform::begin(InvocationId id) {
  Invocation& inv = invocations_[id];
  Function& fn = fns_[inv.fn];

  bool provisioned = false;
  bool cold = false;
  Duration init;

  if (fn.provisioned_idle > 0 || !fn.idle.empty()) {
    // Prefer a provisioned instance; otherwise reuse most-recently-used
    // (LIFO), which maximises the chance older instances expire.
    provisioned = fn.provisioned_idle > 0;
    if (provisioned) {
      --fn.provisioned_idle;
    } else {
      sim_.cancel(fn.idle.back().expiry_event);
      fn.idle.pop_back();
    }
    ++stats_.warm_reuses;
    if (trace_)
      obs::emit(trace_, sim_.now(), "faas.warm_reuse",
                {{"fn", inv.fn}, {"provisioned", provisioned}});
  } else {
    cold = true;
    init = cold_start_time(fn.spec.image);
    ++stats_.cold_starts;
    if (trace_)
      obs::emit(trace_, sim_.now(), "faas.cold_start",
                {{"fn", inv.fn}, {"init", init}});
  }

  ++busy_;
  stats_.peak_concurrency = std::max(stats_.peak_concurrency, busy_);

  const Duration full_exec =
      exec_time(fn.spec.memory, inv.work, fn.spec.parallel_fraction);
  // Credit exec already performed by a checkpointed earlier run.
  const Duration planned = inv.exec_credit < full_exec
                               ? full_exec - inv.exec_credit
                               : Duration::zero();

  // Spot executions race an exponential preemption clock. A preempted
  // instance is torn down, so it neither returns to the warm pool nor
  // survives as provisioned capacity for this slot.
  Duration exec = planned;
  bool preempted = false;
  if (inv.tier == Tier::Spot && !cfg_.spot_mean_time_to_preempt.is_zero()) {
    const Duration survive = Duration::from_seconds(
        rng_.exponential(cfg_.spot_mean_time_to_preempt.to_seconds()));
    if (survive < planned) {
      exec = survive;
      preempted = true;
    }
  }

  inv.executing = true;
  inv.cold = cold;
  inv.provisioned = provisioned;
  inv.preempted_by_clock = preempted;
  inv.version = fn.version;
  inv.admission = sim_.now();
  inv.init = init;
  inv.planned_exec = planned;
  inv.exec = exec;
  inv.completion =
      sim_.schedule_after(init + exec, [this, id] { complete(id, false); });
}

void Platform::complete(InvocationId id, bool forced) {
  const Invocation& inv = invocations_[id];
  if (forced) sim_.cancel(inv.completion);

  const TimePoint now = sim_.now();
  Duration init = inv.init;
  Duration exec = inv.exec;
  bool preempted = inv.preempted_by_clock;
  if (forced) {
    // Truncate to what actually ran: init completes first, then exec.
    const Duration elapsed = now - inv.admission;
    init = std::min(init, elapsed);
    exec = std::max(Duration::zero(), std::min(elapsed - init, inv.exec));
    preempted = true;
  }
  const FunctionId fn_id = inv.fn;

  InvocationResult r;
  r.submitted = inv.submitted;
  r.started = inv.admission + init;
  r.finished = now;
  r.cold_start = inv.cold;
  r.preempted = preempted;
  r.tier = inv.tier;
  r.queue_wait = inv.admission - inv.submitted;
  r.init_time = init;
  r.exec_time = exec;
  r.exec_credit = inv.exec_credit;
  r.cost = invocation_cost(fns_[fn_id].spec.memory, exec, r.started, r.tier);

  stats_.total_exec += exec;
  stats_.exec_cost += r.cost - cfg_.price_per_request;
  stats_.request_cost += cfg_.price_per_request;
  if (preempted) ++stats_.preemptions;

  if (m_.exec_ms) m_.exec_ms->add(exec.to_millis());
  if (m_.init_ms) m_.init_ms->add(init.to_millis());
  if (m_.queue_wait_ms) m_.queue_wait_ms->add(r.queue_wait.to_millis());
  if (trace_) {
    if (preempted)
      obs::emit(trace_, sim_.now(), "faas.preempted",
                {{"fn", fn_id}, {"exec", exec}, {"forced", forced}});
    obs::emit(trace_, sim_.now(), "faas.complete",
              {{"fn", fn_id},
               {"exec", exec},
               {"queue_wait", r.queue_wait},
               {"cold", r.cold_start},
               {"cost", r.cost}});
  }

  NTCO_EXPECTS(busy_ > 0);
  --busy_;
  // A preempted instance is torn down, and so is one whose function was
  // redeployed while it ran: redeploy() already stopped counting it.
  Function& f = fns_[fn_id];
  if (inv.version == f.version) {
    if (!preempted) {
      finish_instance(fn_id, inv.provisioned);
    } else if (inv.provisioned) {
      if (f.provisioned_total > 0) --f.provisioned_total;
      // Re-establish the provisioned target with a fresh instance.
      const std::size_t target = f.provisioned_target;
      f.provisioned_target = 0;
      set_provisioned_concurrency(fn_id, target);
    }
  }
  deliver(id, r);
}

void Platform::deliver(InvocationId id, const InvocationResult& r) {
  // `done` may invoke again and take this very slot: move it out first.
  Callback done = std::move(invocations_[id].done);
  invocations_.release(id);
  done(r);
  pump();
}

bool Platform::checkpoint_preempt(InvocationId id) {
  const Invocation* inv = invocations_.find(id);
  if (inv == nullptr) return false;
  if (trace_)
    obs::emit(trace_, sim_.now(), "faas.checkpoint",
              {{"fn", inv->fn}, {"queued", !inv->executing}});
  if (inv->executing) {
    complete(id, /*forced=*/true);
    return true;
  }
  // Still throttled: leave the queue and complete with zero exec.
  unqueue(id);
  InvocationResult r;
  r.submitted = inv->submitted;
  r.started = sim_.now();
  r.finished = sim_.now();
  r.preempted = true;
  r.tier = inv->tier;
  r.queue_wait = sim_.now() - inv->submitted;
  r.exec_credit = inv->exec_credit;
  deliver(id, r);
  return true;
}

std::optional<InFlightStatus> Platform::in_flight(InvocationId id) const {
  const Invocation* inv = invocations_.find(id);
  if (inv == nullptr) return std::nullopt;
  if (!inv->executing) {
    const Function& fn = fns_[inv->fn];
    const Duration full =
        exec_time(fn.spec.memory, inv->work, fn.spec.parallel_fraction);
    const Duration planned =
        inv->exec_credit < full ? full - inv->exec_credit : Duration::zero();
    return InFlightStatus{false, Duration::zero(), planned};
  }
  const Duration elapsed = sim_.now() - inv->admission;
  const Duration consumed = std::max(
      Duration::zero(), std::min(elapsed - inv->init, inv->planned_exec));
  return InFlightStatus{true, consumed, inv->planned_exec - consumed};
}

void Platform::finish_instance(FunctionId fn_id, bool provisioned) {
  Function& fn = fns_[fn_id];
  if (provisioned) {
    if (fn.provisioned_total > fn.provisioned_target)
      --fn.provisioned_total;  // retire excess provisioned capacity
    else
      ++fn.provisioned_idle;
    return;
  }
  // On-demand instance stays warm for the keep-alive window.
  const std::uint64_t instance_id = next_instance_++;
  const auto expiry =
      sim_.schedule_after(cfg_.keep_alive, [this, fn_id, instance_id] {
        auto& idle = fns_[fn_id].idle;
        const auto it = std::find_if(idle.begin(), idle.end(),
                                     [&](const IdleInstance& i) {
                                       return i.instance_id == instance_id;
                                     });
        if (it != idle.end()) idle.erase(it);
      });
  fn.idle.push_back(IdleInstance{instance_id, expiry});
}

void Platform::accrue_provisioned() const {
  const TimePoint now = sim_.now();
  const Duration elapsed = now - provisioned_accrued_until_;
  if (elapsed > Duration::zero()) {
    const double gb_seconds = provisioned_gb() * elapsed.to_seconds();
    stats_.provisioned_cost +=
        cfg_.provisioned_price_per_gb_second * gb_seconds;
  }
  provisioned_accrued_until_ = now;
}

double Platform::provisioned_gb() const {
  double gb = 0.0;
  for (const auto& fn : fns_)
    gb += static_cast<double>(fn.provisioned_total) *
          static_cast<double>(fn.spec.memory.count_bytes()) / 1e9;
  return gb;
}

std::size_t Platform::warm_count(FunctionId id) const {
  NTCO_EXPECTS(id < fns_.size());
  return fns_[id].idle.size() + fns_[id].provisioned_idle;
}

PlatformStats Platform::stats() const {
  accrue_provisioned();
  return stats_;
}

Money Platform::total_cost() const {
  accrue_provisioned();
  return stats_.exec_cost + stats_.request_cost + stats_.provisioned_cost;
}

}  // namespace ntco::serverless
