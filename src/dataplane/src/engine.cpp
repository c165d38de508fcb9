#include "ntco/dataplane/engine.hpp"

#include <array>
#include <condition_variable>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>

#include "ntco/common/contracts.hpp"

namespace ntco::dataplane {

namespace {

/// One run's shared state; `mu` guards every other field.
struct Pool {
  std::mutex mu;
  std::condition_variable claimable;  ///< workers: window space, or stop
  std::condition_variable mergeable;  ///< caller: cursor shard done, or stop
  std::size_t shards = 0;
  std::size_t next = 0;    ///< next shard to claim
  std::size_t merged = 0;  ///< merge cursor: [0, merged) is merged
  /// done[s % kWindow] for the claimed, unmerged shards [merged, next).
  std::array<bool, Engine::kWindow> done{};
  bool stop = false;
  std::exception_ptr failure;  ///< first exception a shard body threw
};

void work(Pool& p, ShardFn body, void* body_ctx, std::uint64_t& items) {
  std::unique_lock<std::mutex> lock(p.mu);
  for (;;) {
    p.claimable.wait(lock, [&p] {
      return p.stop || p.next == p.shards ||
             p.next - p.merged < Engine::kWindow;
    });
    if (p.stop || p.next == p.shards) return;
    const std::size_t s = p.next++;
    lock.unlock();
    std::exception_ptr err;
    try {
      body(body_ctx, s);
    } catch (...) {
      err = std::current_exception();
    }
    ++items;
    lock.lock();
    if (err) {
      if (!p.failure) p.failure = err;
      p.stop = true;
      p.claimable.notify_all();
      p.mergeable.notify_one();
      return;
    }
    p.done[s % Engine::kWindow] = true;
    if (s == p.merged) p.mergeable.notify_one();
  }
}

}  // namespace

Engine::Engine(std::size_t workers) : workers_(workers) {
  NTCO_EXPECTS(workers_ >= 1);
}

void Engine::run(std::size_t shards, ShardFn body, void* body_ctx,
                 MergeFn merge, void* merge_ctx) {
  NTCO_EXPECTS(shards > 0);
  NTCO_EXPECTS(body != nullptr);
  stats_ = EngineRunStats{};
  stats_.items_per_worker.assign(workers_, 0);
  Pool p;
  p.shards = shards;

  std::vector<std::thread> threads;
  const auto halt = [&] {
    {
      const std::lock_guard<std::mutex> lock(p.mu);
      p.stop = true;
    }
    p.claimable.notify_all();
    for (std::thread& t : threads) t.join();
  };
  try {
    threads.reserve(workers_);
    for (std::size_t w = 0; w < workers_; ++w)
      threads.emplace_back(work, std::ref(p), body, body_ctx,
                           std::ref(stats_.items_per_worker[w]));
    std::unique_lock<std::mutex> lock(p.mu);
    while (p.merged < shards) {
      p.mergeable.wait(
          lock, [&p] { return p.stop || p.done[p.merged % kWindow]; });
      if (p.stop) break;
      const std::size_t begin = p.merged;
      std::size_t end = begin;
      while (end < p.next && p.done[end % kWindow])
        p.done[end++ % kWindow] = false;
      // Workers cannot claim past the window until the cursor moves, so
      // the slots just cleared stay unused while the prefix merges.
      lock.unlock();
      if (merge != nullptr) merge(merge_ctx, begin, end);
      ++stats_.epochs;
      lock.lock();
      p.merged = end;
      p.claimable.notify_all();
    }
  } catch (...) {
    halt();
    throw;
  }
  halt();
  if (p.failure) std::rethrow_exception(p.failure);
}

}  // namespace ntco::dataplane
