#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>
#include <utility>

#include "ntco/stats/percentile.hpp"

namespace perfbench {

namespace {

double secs(std::int64_t ns) { return static_cast<double>(ns) * 1e-9; }

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double quantile_or_zero(const ntco::stats::PercentileSample& s, double q) {
  return s.empty() ? 0.0 : s.quantile(q);
}

void fail(std::string& error, const std::string& what) {
  if (!error.empty()) error += "; ";
  error += what;
}

std::size_t kind_index(SpanKind k) { return static_cast<std::size_t>(k); }

}  // namespace

void absorb(Round& r, ShardResult&& s) {
  r.digest = fnv(r.digest, s.digest);
  if (!s.error.empty()) {
    if (r.failed_shards == 0) r.first_error = s.error;
    ++r.failed_shards;
  }
  ShardResult& t = r.total;
  t.offered += s.offered;
  t.completed += s.completed;
  t.failed += s.failed;
  t.shed_deadline += s.shed_deadline;
  t.shed_queue += s.shed_queue;
  t.admitted += s.admitted;
  t.deferrals += s.deferrals;
  t.cache_hits += s.cache_hits;
  t.cache_misses += s.cache_misses;
  t.cache_evictions += s.cache_evictions;
  t.cache_expiries += s.cache_expiries;
  t.batches += s.batches;
  t.fast_serves += s.fast_serves;
  t.resolves += s.resolves;
  t.plan_calls += s.plan_calls;
  t.heuristic_calls += s.heuristic_calls;
  t.transport_calls += s.transport_calls;
  t.invocations += s.invocations;
  t.cold_starts += s.cold_starts;
  t.sim_events += s.sim_events;
  t.cloud_usd += s.cloud_usd;
  t.completion_s.merge(s.completion_s);
  if (!s.spans.empty()) {
    r.shard_spans.push_back(std::move(s.spans));
    r.serve_class.push_back(std::move(s.serve_class));
  }
}

std::vector<Metric> layer_metrics(const Round& r, std::vector<Metric>& extras,
                                  std::string& error) {
  std::array<std::int64_t, kSpanKinds> total_ns{};
  std::array<std::int64_t, kSpanKinds> self_ns{};
  std::array<std::uint64_t, kSpanKinds> count{};
  ntco::stats::PercentileSample shard_ms, plan_ns, hit_ns, miss_ns;
  std::int64_t miss_serve_ns = 0;
  std::int64_t plan_in_miss_ns = 0;  // both partitioners, inside miss serves
  std::int64_t self_sum = 0;

  for (std::size_t s = 0; s < r.shard_spans.size(); ++s) {
    const std::vector<Span>& spans = r.shard_spans[s];
    const std::vector<std::uint8_t>& cls = r.serve_class[s];
    auto serve_class = [&](const Span& sp) -> int {
      return sp.request < cls.size() ? cls[sp.request] : 2;
    };
    std::vector<std::int64_t> child_ns(spans.size(), 0);
    for (const Span& sp : spans) {
      if (sp.end_ns < sp.start_ns) {
        fail(error, std::string("unclosed span ") +
                        kSpanNames[kind_index(sp.kind)]);
        return {};
      }
      if (sp.parent != kNoParent)
        child_ns[static_cast<std::size_t>(sp.parent)] +=
            sp.end_ns - sp.start_ns;
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& sp = spans[i];
      const std::int64_t dur = sp.end_ns - sp.start_ns;
      const std::int64_t self = dur - child_ns[i];
      if (self < 0)
        fail(error, std::string("negative self time in ") +
                        kSpanNames[kind_index(sp.kind)]);
      const std::size_t k = kind_index(sp.kind);
      total_ns[k] += dur;
      self_ns[k] += self;
      ++count[k];
      self_sum += self;
      switch (sp.kind) {
        case SpanKind::Shard:
          shard_ms.add(static_cast<double>(dur) * 1e-6);
          break;
        case SpanKind::Serve:
          if (serve_class(sp) == 0) hit_ns.add(static_cast<double>(dur));
          if (serve_class(sp) == 1) {
            miss_ns.add(static_cast<double>(dur));
            miss_serve_ns += dur;
          }
          break;
        case SpanKind::Plan:
        case SpanKind::HeuristicPlan:
          if (sp.kind == SpanKind::Plan) plan_ns.add(static_cast<double>(dur));
          if (sp.parent != kNoParent) {
            const Span& parent = spans[static_cast<std::size_t>(sp.parent)];
            if (parent.kind == SpanKind::Serve && serve_class(parent) == 1)
              plan_in_miss_ns += dur;
          }
          break;
        default:
          break;
      }
    }
  }
  const std::int64_t shard_ns = total_ns[kind_index(SpanKind::Shard)];
  if (self_sum > shard_ns)
    fail(error, "self times sum past the shard time");

  const ShardResult& t = r.total;
  if (count[kind_index(SpanKind::Plan)] != t.plan_calls)
    fail(error, "plan spans differ from the decorator's plan calls");
  if (count[kind_index(SpanKind::Transport)] != t.transport_calls)
    fail(error, "transport spans differ from the decorator's calls");

  std::int64_t merge_ns = 0;
  for (const Span& sp : r.merge_spans) merge_ns += sp.end_ns - sp.start_ns;

  const ntco::dataplane::EngineRunStats& dp = r.dataplane;
  double imbalance = 1.0;
  if (!dp.items_per_worker.empty()) {
    std::uint64_t sum = 0;
    std::uint64_t max = 0;
    for (const std::uint64_t n : dp.items_per_worker) {
      sum += n;
      max = std::max(max, n);
    }
    const double mean = static_cast<double>(sum) /
                        static_cast<double>(dp.items_per_worker.size());
    if (mean > 0.0) imbalance = static_cast<double>(max) / mean;
  }

  const auto n = [](std::uint64_t x) { return static_cast<double>(x); };
  const double sim_self_s = secs(self_ns[kind_index(SpanKind::SimRun)]);
  const double plan_s = secs(total_ns[kind_index(SpanKind::Plan)]);
  const double prepare_other_s = secs(miss_serve_ns - plan_in_miss_ns);
  const std::uint64_t lookups = t.cache_hits + t.cache_misses;

  extras = {
      {"partition.heuristic_calls", n(t.heuristic_calls), "count"},
      {"partition.heuristic_s",
       secs(total_ns[kind_index(SpanKind::HeuristicPlan)]), "s"},
      {"planning_share_of_shard",
       ratio(plan_s + prepare_other_s, secs(shard_ns)), "ratio"},
      {"broker.shed_share",
       ratio(n(t.shed_deadline + t.shed_queue), n(t.offered)), "ratio"},
      {"fleet.shard_self_s", secs(self_ns[kind_index(SpanKind::Shard)]), "s"},
      {"broker.serve_self_s", secs(self_ns[kind_index(SpanKind::Serve)]), "s"},
  };

  return {
      {"fleet.reduce_s", r.wall_s, "s"},
      {"fleet.shard_ms_p50", quantile_or_zero(shard_ms, 0.5), "ms"},
      {"fleet.shard_ms_p99", quantile_or_zero(shard_ms, 0.99), "ms"},
      {"fleet.merge_s", secs(merge_ns), "s"},
      {"fleet.busy_share",
       ratio(secs(shard_ns), n(r.workers) * r.wall_s), "ratio"},
      {"dataplane.epochs", n(dp.epochs), "count"},
      {"dataplane.mean_occupancy", dp.mean_occupancy, "ratio"},
      {"dataplane.scale_events", n(dp.scale_ups + dp.scale_downs), "count"},
      {"dataplane.worker_imbalance", imbalance, "ratio"},
      {"sim.events", n(t.sim_events), "count"},
      {"sim.run_s", secs(total_ns[kind_index(SpanKind::SimRun)]), "s"},
      {"sim.self_s", sim_self_s, "s"},
      {"sim.ns_per_event", ratio(sim_self_s * 1e9, n(t.sim_events)), "ns"},
      {"broker.serve_calls", n(count[kind_index(SpanKind::Serve)]), "count"},
      {"broker.serve_s", secs(total_ns[kind_index(SpanKind::Serve)]), "s"},
      {"broker.serve_hit_ns_p50", quantile_or_zero(hit_ns, 0.5), "ns"},
      {"broker.serve_miss_ns_p50", quantile_or_zero(miss_ns, 0.5), "ns"},
      {"broker.serve_miss_ns_p99", quantile_or_zero(miss_ns, 0.99), "ns"},
      {"broker.cache_hit_rate", ratio(n(t.cache_hits), n(lookups)), "ratio"},
      {"broker.cache_lookups", n(lookups), "count"},
      {"broker.cache_evictions", n(t.cache_evictions), "count"},
      {"broker.cache_expiries", n(t.cache_expiries), "count"},
      {"broker.deferrals", n(t.deferrals), "count"},
      {"broker.shed_deadline", n(t.shed_deadline), "count"},
      {"broker.shed_queue", n(t.shed_queue), "count"},
      {"broker.batches", n(t.batches), "count"},
      {"broker.twostage_fast_serves", n(t.fast_serves), "count"},
      {"broker.twostage_resolves", n(t.resolves), "count"},
      {"partition.plan_calls", n(t.plan_calls), "count"},
      {"partition.plan_s", plan_s, "s"},
      {"partition.plan_ns_p50", quantile_or_zero(plan_ns, 0.5), "ns"},
      {"partition.plan_ns_p99", quantile_or_zero(plan_ns, 0.99), "ns"},
      {"core.prepare_other_s", prepare_other_s, "s"},
      {"serverless.invocations", n(t.invocations), "count"},
      {"serverless.cold_starts", n(t.cold_starts), "count"},
      {"net.transport_calls", n(t.transport_calls), "count"},
      {"net.transport_s", secs(total_ns[kind_index(SpanKind::Transport)]), "s"},
  };
}

bool write_spans(const std::string& path, const Round& r) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  std::int64_t origin = std::numeric_limits<std::int64_t>::max();
  for (const auto& spans : r.shard_spans)
    if (!spans.empty()) origin = std::min(origin, spans.front().start_ns);
  for (const Span& sp : r.merge_spans) origin = std::min(origin, sp.start_ns);
  std::fprintf(f, "shard,span,name,parent,request,start_ns,end_ns\n");
  auto row = [&](long long shard, std::size_t i, const Span& sp) {
    std::fprintf(f, "%lld,%zu,%s,%d,%lld,%lld,%lld\n", shard, i,
                 kSpanNames[kind_index(sp.kind)], sp.parent,
                 sp.request == kNoRequest ? -1LL
                                          : static_cast<long long>(sp.request),
                 static_cast<long long>(sp.start_ns - origin),
                 static_cast<long long>(sp.end_ns - origin));
  };
  for (std::size_t s = 0; s < r.shard_spans.size(); ++s)
    for (std::size_t i = 0; i < r.shard_spans[s].size(); ++i)
      row(static_cast<long long>(s), i, r.shard_spans[s][i]);
  // The orchestrator's merge spans carry shard -1.
  for (std::size_t i = 0; i < r.merge_spans.size(); ++i)
    row(-1, i, r.merge_spans[i]);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
