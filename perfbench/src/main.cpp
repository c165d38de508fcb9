// Serve-path benchmark: replays one workload through the public ntco API
// (app inputs -> fleet::Replicator -> broker::Broker::serve ->
// sim::Simulator::run) for a fixed host-time budget, checks every shard's
// outputs, and prints host metrics. The last stdout line is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//   serve_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--out-dir DIR]
//
// --trace 0 measures the end-to-end metrics with every probe's clock off.
// Its time metrics are normalised to the host's speed, gauged by a
// reference slice after every shard (see reference.hpp).
// --trace 1 spends half the budget on untraced rounds and half on traced
// ones, and reports the per-layer metrics plus the tracing overhead;
// with --out-dir it writes the last traced round's spans to
// DIR/<workload>.spans.csv. See README.md for the metric map.

#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "ntco/fleet/replicator.hpp"
#include "probes.hpp"
#include "reference.hpp"
#include "workloads.hpp"

using namespace perfbench;

namespace {

// Set-ups per run: at least kSetupReps and kSetupMinSeconds in all, so a
// workload with small inputs still reports a median over many samples.
constexpr int kSetupReps = 11;
constexpr double kSetupMinSeconds = 0.5;
constexpr std::size_t kMinRounds = 3;  // per timed phase, whatever the budget
constexpr std::size_t kSliceShards = 8;  // 1-vs-N-worker digest check

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir;
};

bool parse(int argc, char** argv, Options& o) {
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* val = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      o.workload = val;
    } else if (key == "--seed") {
      o.seed = std::strtoull(val, &end, 10);
      have_seed = end != val && *end == '\0';
    } else if (key == "--seconds") {
      o.seconds = std::strtod(val, &end);
      if (end == val || *end != '\0') return false;
    } else if (key == "--trace") {
      const std::string_view v = val;
      o.trace = v == "0" ? 0 : v == "1" ? 1 : -1;
    } else if (key == "--out-dir") {
      o.out_dir = val;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && have_seed &&
         o.seconds > 0.0 && o.trace >= 0;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Shortest round-trip decimal form; JSON has no NaN or infinity.
std::string num(double x) {
  if (!std::isfinite(x)) return "0";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, x);
  return std::string(buf, res.ptr);
}

/// Host slowness during a round: its reference slices' mean wall
/// (or CPU) time over the nominal one; above 1 when the host ran slow.
double wall_slowness(const Round& r) {
  return r.ref_wall_s / static_cast<double>(r.shards) /
         kReferenceSliceSeconds;
}
double cpu_slowness(const Round& r) {
  return r.ref_cpu_s / static_cast<double>(r.shards) /
         kReferenceSliceSeconds;
}

/// One reduce over the first `shards` shards at `threads` fleet workers.
/// Each shard is followed by a reference slice on its worker.
Round run_round(const Workload& w, const std::vector<ShardInput>& inputs,
                std::size_t shards, std::size_t threads, bool traced) {
  ntco::fleet::Replicator rep(0, threads);  // bodies draw nothing from ctx.rng
  std::vector<ReferenceTime> refs(shards);
  SpanRecorder merge_rec;
  SpanRecorder* mrec = traced ? &merge_rec : nullptr;
  const double cpu0 = cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  Round r = rep.reduce(
      shards, Round{},
      [&](ntco::fleet::ShardContext& ctx) {
        SpanRecorder rec;
        ShardResult s = run_shard(w, inputs[ctx.shard], traced ? &rec : nullptr);
        refs[ctx.shard] = time_reference_slice();
        return s;
      },
      [mrec](Round& acc, ShardResult&& s, std::size_t) {
        const ScopedSpan span(mrec, SpanKind::Merge);
        absorb(acc, std::move(s));
      });
  r.wall_s = seconds_since(t0);
  r.cpu_s = cpu_seconds() - cpu0;
  r.shards = shards;
  r.workers = std::min(threads, shards);
  r.dataplane = rep.last_dataplane_run();
  r.merge_spans = std::move(merge_rec.spans());
  for (const ReferenceTime& t : refs) {
    r.ref_wall_s += t.wall_s;
    r.ref_cpu_s += t.cpu_s;
    r.ref_ok = r.ref_ok && t.ok;
  }
  r.wall_s -= r.ref_wall_s / static_cast<double>(r.workers);
  r.cpu_s -= r.ref_cpu_s;
  return r;
}

void print_metrics_json(bool correct, std::size_t attempted, std::size_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num(metrics[i].value) +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const Metric& m : metrics)
    std::printf("  %-30s %16s %s\n", m.name.c_str(), num(m.value).c_str(),
                m.unit);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: serve_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out-dir DIR]\n");
    return 2;
  }
  const Workload* wp = find_workload(opt.workload);
  if (wp == nullptr) {
    std::fprintf(stderr, "serve_bench: unknown workload '%s'; known:",
                 opt.workload.c_str());
    for (const Workload& w : all_workloads())
      std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  const Workload& w = *wp;
  const unsigned hw = std::thread::hardware_concurrency();
  // Fleet workers plus the orchestrator stay within nproc.
  const std::size_t parallel = hw > 1 ? hw - 1 : 1;
  const std::size_t threads = w.parallel ? parallel : 1;

  // Set-up, outside every timed round: the inputs are generated several
  // times from the seed (the same inputs each time); the rounds replay the
  // last set.
  std::vector<double> setup_s;  // normalised
  std::vector<double> raw_setup_s;
  std::vector<double> gen_s;
  std::vector<ShardInput> inputs;
  const auto t_setup = std::chrono::steady_clock::now();
  for (int rep = 0;
       rep < kSetupReps || seconds_since(t_setup) < kSetupMinSeconds; ++rep) {
    double arrivals_s = 0.0;
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<ShardInput> fresh = make_inputs(w, opt.seed, arrivals_s);
    const double took = seconds_since(t0);
    const ReferenceTime ref = time_reference_slice();
    raw_setup_s.push_back(took);
    setup_s.push_back(took * kReferenceSliceSeconds / ref.wall_s);
    gen_s.push_back(arrivals_s);
    inputs = std::move(fresh);
  }
  std::uint64_t offered = 0;
  for (const ShardInput& in : inputs) offered += in.requests.size();
  const double users = static_cast<double>(offered);

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> problems;
  auto account = [&](const Round& r, const char* phase) {
    attempted += r.shards;
    failed += r.failed_shards;
    if (r.failed_shards > 0)
      problems.push_back(std::string(phase) + ": " + r.first_error);
    if (!r.ref_ok)
      problems.push_back(std::string(phase) + ": reference checksum changed");
  };

  // Timed phase, every probe's clock off. A round's normalised time is its
  // own time over the host's slowness during it.
  const double budget = opt.trace == 1 ? opt.seconds / 2.0 : opt.seconds;
  std::vector<double> users_per_s;  // normalised
  std::vector<double> cpu_us;       // normalised
  std::vector<double> raw_users_per_s;
  std::vector<double> raw_cpu_us;
  std::vector<double> slice_ms;
  Round first;
  auto t_phase = std::chrono::steady_clock::now();
  while (users_per_s.size() < kMinRounds || seconds_since(t_phase) < budget) {
    Round r = run_round(w, inputs, w.shards, threads, false);
    account(r, "timed round");
    raw_users_per_s.push_back(users / r.wall_s);
    raw_cpu_us.push_back(r.cpu_s * 1e6 / users);
    users_per_s.push_back(users / r.wall_s * wall_slowness(r));
    cpu_us.push_back(r.cpu_s / cpu_slowness(r) * 1e6 / users);
    slice_ms.push_back(r.ref_wall_s * 1e3 / static_cast<double>(r.shards));
    if (users_per_s.size() == 1) {
      first = std::move(r);
    } else if (r.digest != first.digest) {
      problems.push_back("simulated digest differs between timed rounds");
    }
  }

  // Traced phase: same rounds with spans on; per-layer metrics are the
  // per-metric medians over the traced rounds (as measured, not
  // normalised; trace.overhead compares normalised throughputs).
  std::vector<Metric> layers;
  std::vector<Metric> extras;
  if (opt.trace == 1) {
    std::vector<double> traced_ups;
    std::vector<std::vector<Metric>> per_round;
    std::vector<std::vector<Metric>> extras_per_round;
    Round last;
    t_phase = std::chrono::steady_clock::now();
    while (traced_ups.size() < kMinRounds || seconds_since(t_phase) < budget) {
      Round r = run_round(w, inputs, w.shards, threads, true);
      account(r, "traced round");
      if (r.digest != first.digest)
        problems.push_back("simulated digest differs traced vs untraced");
      traced_ups.push_back(users / r.wall_s * wall_slowness(r));
      std::string err;
      std::vector<Metric> ex;
      per_round.push_back(layer_metrics(r, ex, err));
      extras_per_round.push_back(std::move(ex));
      if (!err.empty()) problems.push_back("span check: " + err);
      last = std::move(r);
    }
    auto medians = [](const std::vector<std::vector<Metric>>& rounds) {
      std::vector<Metric> out = rounds.front();
      for (std::size_t i = 0; i < out.size(); ++i) {
        std::vector<double> v;
        for (const auto& m : rounds)
          if (i < m.size()) v.push_back(m[i].value);
        out[i].value = median(std::move(v));
      }
      return out;
    };
    layers = {{"app.gen_s", median(gen_s), "s"},
              {"app.arrivals", users, "count"}};
    for (Metric& m : medians(per_round)) layers.push_back(std::move(m));
    layers.push_back({"trace.overhead",
                      1.0 - median(traced_ups) / median(users_per_s), "ratio"});
    extras = medians(extras_per_round);
    if (!opt.out_dir.empty()) {
      const std::string path = opt.out_dir + "/" + w.name + ".spans.csv";
      if (write_spans(path, last))
        std::printf("spans: %s\n", path.c_str());
      else
        problems.push_back("cannot write " + path);
    }
  }

  // Determinism: a small slice at 1 worker and at nproc-1 workers must
  // simulate byte-identical outputs.
  const std::size_t slice = std::min(kSliceShards, w.shards);
  const Round serial = run_round(w, inputs, slice, 1, false);
  const Round fanned = run_round(w, inputs, slice, parallel, false);
  account(serial, "slice t1");
  account(fanned, "slice tN");
  if (serial.digest != fanned.digest)
    problems.push_back("simulated digest differs between 1 and " +
                       std::to_string(parallel) + " workers");

  const bool correct = failed == 0 && problems.empty();
  const double failed_share =
      static_cast<double>(failed) / static_cast<double>(attempted);

  const std::vector<Metric> e2e = {
      {"users_per_s", median(users_per_s), "1/s"},
      {"cpu_us_per_user", median(cpu_us), "us"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };

  const ShardResult& t = first.total;
  std::printf("workload %s: %zu shards, %llu offered requests per round, "
              "%zu fleet worker(s) + 1 orchestrator, seed %llu, %zu timed "
              "round(s)\n",
              w.name, w.shards, static_cast<unsigned long long>(offered),
              threads, static_cast<unsigned long long>(opt.seed),
              users_per_s.size());
  print_table("host (gated, median over rounds, tracing off, normalised to "
              "the reference speed):", e2e);
  const auto [lo, hi] =
      std::minmax_element(users_per_s.begin(), users_per_s.end());
  std::printf("  users_per_s range over rounds: %s .. %s\n", num(*lo).c_str(),
              num(*hi).c_str());
  print_table("host as measured (not gated, medians):",
              {{"raw_users_per_s", median(raw_users_per_s), "1/s"},
               {"raw_cpu_us_per_user", median(raw_cpu_us), "us"},
               {"raw_setup_s", median(raw_setup_s), "s"},
               {"reference_slice_ms", median(slice_ms), "ms"}});
  std::printf("  (a reference slice takes %s ms at the reference speed)\n",
              num(kReferenceSliceSeconds * 1e3).c_str());
  std::printf("  %-30s %16s ratio (%zu of %zu shard runs)\n", "failed_share",
              num(failed_share).c_str(), failed, attempted);
  const std::uint64_t lookups = t.cache_hits + t.cache_misses;
  const std::uint64_t served = t.completed + t.failed;
  const bool done_any = !t.completion_s.empty();
  const auto n = [](std::uint64_t x) { return static_cast<double>(x); };
  print_table(
      "simulated (model outputs, not gated; the model has no reference "
      "measurement, so no error figure is given):",
      {{"hit_rate", lookups == 0 ? 0.0 : n(t.cache_hits) / n(lookups), "ratio"},
       {"usd_per_job", served == 0 ? 0.0 : t.cloud_usd / n(served), "USD"},
       {"completed", n(t.completed), "count"},
       {"shed_deadline", n(t.shed_deadline), "count"},
       {"shed_queue", n(t.shed_queue), "count"},
       {"deferrals", n(t.deferrals), "count"},
       {"completion_p50_s", done_any ? t.completion_s.median() : 0.0, "s"},
       {"completion_p99_s", done_any ? t.completion_s.p99() : 0.0, "s"}});
  std::printf("simulated digest: %016llx (rounds%s, 1 vs %zu workers on a "
              "%zu-shard slice: %s)\n",
              static_cast<unsigned long long>(first.digest),
              opt.trace == 1 ? ", traced vs untraced" : "", parallel, slice,
              serial.digest == fanned.digest ? "identical" : "DIFFERENT");
  if (opt.trace == 1) {
    print_table("per layer (traced rounds, medians):", layers);
    print_table("per layer, not gated:", extras);
  }
  for (const std::string& p : problems)
    std::fprintf(stderr, "serve_bench: check failed: %s\n", p.c_str());
  std::fflush(stderr);

  print_metrics_json(correct, attempted, failed, opt.trace == 1 ? layers : e2e);
  return correct ? 0 : 1;
}
