#include "ntco/dataplane/engine.hpp"

#include <algorithm>
#include <mutex>

#include "ntco/common/contracts.hpp"
#include "ntco/common/units.hpp"

namespace ntco::dataplane {

namespace {

[[nodiscard]] std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 2;
  while (p < v) p <<= 1;
  return p;
}

// Pseudo-time for dataplane trace records: the epoch index as microseconds.
// Scaling telemetry is timing-dependent anyway; a monotone epoch clock keeps
// records ordered without touching a wall clock (lint R1).
[[nodiscard]] TimePoint epoch_time(std::uint64_t epoch) {
  return TimePoint::at(Duration::micros(static_cast<std::int64_t>(epoch)));
}

}  // namespace

Engine::Engine(EngineConfig cfg)
    : cfg_(cfg),
      shared_(round_up_pow2(std::max<std::size_t>(cfg.epoch_width, 4))) {
  NTCO_EXPECTS(cfg_.workers >= 1);
  NTCO_EXPECTS(cfg_.epoch_width >= 1);
  const std::size_t ring_cap =
      round_up_pow2(std::max<std::size_t>(cfg_.ring_capacity, 2));
  for (std::size_t i = 0; i < cfg_.workers; ++i)
    workers_.emplace_back(static_cast<std::uint32_t>(i), ring_cap, cfg_.seed);
  threads_.reserve(cfg_.workers);
  for (auto& w : workers_)
    threads_.emplace_back([this, &w] { worker_loop(w, shared_); });
}

Engine::~Engine() {
  {
    std::lock_guard<std::mutex> lock(shared_.park_mu);
    for (auto& w : workers_)
      w.mode.store(static_cast<int>(WorkerMode::Stopped),
                   std::memory_order_release);
  }
  shared_.park_cv.notify_all();
  for (auto& t : threads_) t.join();
}

void Engine::attach_observer(obs::TraceSink* trace,
                             obs::MetricsRegistry* metrics) {
  trace_ = trace;
  metrics_ = metrics;
  if (metrics_ != nullptr) {
    c_epochs_ = &metrics_->counter("dataplane.epochs");
    c_items_ = &metrics_->counter("dataplane.items");
    c_scale_ups_ = &metrics_->counter("dataplane.scale_ups");
    c_scale_downs_ = &metrics_->counter("dataplane.scale_downs");
    g_active_ = &metrics_->gauge("dataplane.workers.active");
    s_occupancy_ = &metrics_->summary("dataplane.ring.occupancy");
  } else {
    c_epochs_ = c_items_ = c_scale_ups_ = c_scale_downs_ = nullptr;
    g_active_ = nullptr;
    s_occupancy_ = nullptr;
  }
}

void Engine::unpark(std::size_t begin, std::size_t end) {
  {
    // The store must happen under the park mutex: the condvar predicate is
    // checked under the same lock, so a worker can never miss the wakeup.
    std::lock_guard<std::mutex> lock(shared_.park_mu);
    for (std::size_t w = begin; w < end; ++w)
      workers_[w].mode.store(static_cast<int>(WorkerMode::Active),
                             std::memory_order_release);
  }
  shared_.park_cv.notify_all();
}

void Engine::park(std::size_t begin, std::size_t end) {
  // Parking needs no lock: the worker observes the store on its next loop
  // iteration and goes to sleep. Callers only park between epochs, when
  // every request ring is drained, so no task is ever stranded.
  for (std::size_t w = begin; w < end; ++w)
    workers_[w].mode.store(static_cast<int>(WorkerMode::Parked),
                           std::memory_order_release);
}

double Engine::occupancy_snapshot(std::size_t active) const {
  if (active == 0) return 0.0;
  double sum = 0.0;
  for (std::size_t w = 0; w < active; ++w) {
    const WorkerState& ws = workers_[w];
    const double fill = static_cast<double>(ws.requests.size_approx()) /
                        static_cast<double>(ws.requests.capacity());
    sum += std::min(fill, 1.0);  // racy snapshot may transiently overshoot
  }
  return sum / static_cast<double>(active);
}

double Engine::pressure() const {
  const std::size_t active = active_.load(std::memory_order_acquire);
  return occupancy_snapshot(active);
}

void Engine::run(std::size_t shards, ShardFn body, void* body_ctx,
                 EpochFn epoch_done, void* epoch_ctx) {
  NTCO_EXPECTS(shards > 0);
  NTCO_EXPECTS(body != nullptr);
  shared_.body = body;
  shared_.body_ctx = body_ctx;

  const std::size_t pool = workers_.size();
  std::vector<std::uint64_t> items_before(pool, 0);
  for (std::size_t w = 0; w < pool; ++w)
    items_before[w] = workers_[w].items.load(std::memory_order_relaxed);

  CoreController controller(cfg_.controller, pool);
  std::size_t active = std::min(pool, shards);
  unpark(0, active);
  active_.store(active, std::memory_order_release);
  if (g_active_ != nullptr) g_active_->set(static_cast<double>(active));

  double run_occ_sum = 0.0;
  std::uint64_t epoch = 0;
  std::size_t next = 0;
  while (next < shards) {
    const std::size_t end = std::min(shards, next + cfg_.epoch_width);
    const std::size_t count = end - next;
    double occ_sum = 0.0;
    std::uint64_t occ_samples = 0;
    for (std::size_t s = next; s < end; ++s) {
      WorkerState& w = workers_[(s - next) % active];
      const Task task{static_cast<std::uint64_t>(s), epoch};
      // A full ring means the worker needs CPU to drain it — yield rather
      // than spin, so oversubscribed (or single-core) hosts make progress.
      while (!w.requests.try_push(task)) std::this_thread::yield();
    }
    std::size_t done = 0;
    std::uint64_t polls = 0;
    Completion completion;
    while (done < count) {
      if (shared_.completions.try_pop(completion)) {
        ++done;
      } else {
        cpu_relax();
        if ((++polls & 0xffU) == 0) {  // sample occupancy while waiting
          occ_sum += occupancy_snapshot(active);
          ++occ_samples;
          std::this_thread::yield();  // give descheduled workers the core
        }
      }
    }

    // The barrier has drained: every shard in [next, end) has published.
    occ_sum += occupancy_snapshot(active);
    ++occ_samples;
    const double epoch_occ = occ_sum / static_cast<double>(occ_samples);
    run_occ_sum += epoch_occ;

    if (epoch_done != nullptr) epoch_done(epoch_ctx, next, end);

    if (trace_ != nullptr)
      obs::emit(trace_, epoch_time(epoch), "dataplane.epoch.complete",
                {{"epoch", epoch},
                 {"shards", static_cast<std::uint64_t>(count)},
                 {"workers", static_cast<std::uint64_t>(active)}});
    if (metrics_ != nullptr) {
      c_epochs_->add();
      c_items_->add(static_cast<std::uint64_t>(count));
      s_occupancy_->add(epoch_occ);
    }

    next = end;
    ++epoch;
    const std::size_t pending = shards - next;
    const std::size_t target = controller.plan(active, epoch_occ, pending);
    if (pending > 0 && target != active) {
      if (target > active) {
        unpark(active, target);
        if (c_scale_ups_ != nullptr) c_scale_ups_->add(target - active);
        if (trace_ != nullptr)
          for (std::size_t w = active; w < target; ++w)
            obs::emit(trace_, epoch_time(epoch), "dataplane.worker.acquire",
                      {{"worker", workers_[w].index},
                       {"epoch", epoch},
                       {"liveness", controller.liveness()[w]}});
      } else {
        park(target, active);
        if (c_scale_downs_ != nullptr) c_scale_downs_->add(active - target);
        if (trace_ != nullptr)
          for (std::size_t w = target; w < active; ++w)
            obs::emit(trace_, epoch_time(epoch), "dataplane.worker.release",
                      {{"worker", workers_[w].index},
                       {"epoch", epoch},
                       {"liveness", controller.liveness()[w]}});
      }
      active = target;
      active_.store(active, std::memory_order_release);
      if (g_active_ != nullptr) g_active_->set(static_cast<double>(active));
    }
  }

  park(0, active);
  active_.store(0, std::memory_order_release);

  stats_ = EngineRunStats{};
  stats_.epochs = epoch;
  stats_.items = static_cast<std::uint64_t>(shards);
  stats_.scale_ups = controller.stats().scale_ups;
  stats_.scale_downs = controller.stats().scale_downs;
  stats_.mean_occupancy =
      epoch == 0 ? 0.0 : run_occ_sum / static_cast<double>(epoch);
  stats_.final_workers = active;
  stats_.core_liveness = controller.liveness();
  stats_.items_per_worker.assign(pool, 0);
  for (std::size_t w = 0; w < pool; ++w)
    stats_.items_per_worker[w] =
        workers_[w].items.load(std::memory_order_relaxed) - items_before[w];
}

}  // namespace ntco::dataplane
