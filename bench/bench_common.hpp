#pragma once

// Shared fixtures for the experiment binaries. Every bench builds a fresh
// simulated world per configuration point so results are independent and
// deterministic (fixed seeds; see DESIGN.md).

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "ntco/app/workloads.hpp"
#include "ntco/cicd/pipeline.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/edgesim/edge_platform.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/stats/table.hpp"
#include "ntco/net/path.hpp"

namespace ntco::bench {

/// One self-contained simulated world: event loop, serverless region,
/// UE, and UE<->cloud network path.
struct World {
  sim::Simulator sim;
  serverless::Platform cloud;
  device::Device ue;
  net::NetworkPath path;
  core::OffloadController controller;

  World(core::ControllerConfig ccfg, net::TechProfile tech,
        serverless::PlatformConfig pcfg = {},
        device::DeviceSpec ue_spec = device::budget_phone())
      : cloud(sim, pcfg),
        ue(std::move(ue_spec)),
        path(net::make_fixed_path(tech)),
        controller(sim, cloud, ue, path, ccfg) {}
};

inline core::ControllerConfig latency_cfg() {
  core::ControllerConfig cfg;
  cfg.objective = partition::Objective::latency();
  return cfg;
}

inline core::ControllerConfig ntc_cfg() {
  core::ControllerConfig cfg;
  cfg.objective = partition::Objective::non_time_critical();
  return cfg;
}

/// Reports that `p` could not be written (errno `err`) and exits with 1.
[[noreturn]] inline void fail_write(const std::string& p, int err) {
  std::fprintf(stderr, "ntco: cannot write %s: %s\n", p.c_str(),
               std::strerror(err));
  std::exit(1);
}

/// Writes `content` to `p`, or appends it. A file that cannot be written
/// prints "ntco: cannot write <p>: <errno text>" on stderr and ends the
/// process with status 1.
inline void write_file(const std::string& p, const std::string& content,
                       bool append) {
  std::FILE* f = std::fopen(p.c_str(), append ? "ab" : "wb");
  if (f == nullptr) fail_write(p, errno);
  if (std::fwrite(content.data(), 1, content.size(), f) != content.size()) {
    const int err = errno;
    std::fclose(f);
    fail_write(p, err);
  }
  if (std::fclose(f) != 0) fail_write(p, errno);
}

/// Unified experiment reporting: one object per bench binary that prints
/// the uniform banner on construction, renders every result table for
/// humans, and — when the environment variable NTCO_BENCH_OUT names a
/// directory — mirrors everything machine-readably into it:
///
///   <id>.t<k>.csv       k-th table as CSV (k counts from 1)
///   <id>.rows.jsonl     all table rows as JSON Lines (keyed by header)
///   <id>.metrics.csv    MetricsRegistry dump (via emit_metrics)
///   <id>.trace.jsonl    trace stream (via emit_trace)
///
/// All machine files are byte-deterministic under fixed seeds. A file that
/// cannot be written ends the bench with status 1, so a run never exits 0
/// without its artifacts.
class ReportWriter {
 public:
  ReportWriter(std::string id, const char* title, const char* shape)
      : id_(std::move(id)) {
    std::printf(
        "\n################################################################\n");
    std::printf("# %s  %s\n", id_.c_str(), title);
    std::printf("# expected shape: %s\n", shape);
    std::printf(
        "################################################################\n\n");
    if (const char* dir = std::getenv("NTCO_BENCH_OUT");
        dir != nullptr && dir[0] != '\0')
      dir_ = dir;
  }

  /// True when machine-readable output is being written.
  [[nodiscard]] bool machine_output() const { return !dir_.empty(); }
  [[nodiscard]] const std::string& id() const { return id_; }

  /// Prints the table and mirrors it to <id>.t<k>.csv + <id>.rows.jsonl.
  void emit(const stats::Table& t) {
    std::printf("%s\n", t.render().c_str());
    std::fflush(stdout);
    if (dir_.empty()) return;
    ++tables_;
    write_file(path(".t" + std::to_string(tables_) + ".csv"), t.render_csv(),
               /*append=*/false);
    write_file(path(".rows.jsonl"), t.render_jsonl(), /*append=*/tables_ > 1);
  }

  /// Prints a table of wall-clock figures to stderr only. Host timings
  /// differ from run to run, so they stay out of stdout and the
  /// NTCO_BENCH_OUT artifacts, which CI pins byte for byte.
  void emit_wall_clock(const stats::Table& t) const {
    std::fprintf(stderr, "%s\n", t.render().c_str());
    std::fflush(stderr);
  }

  /// Dumps the registry to <id>.metrics.csv (no-op without NTCO_BENCH_OUT).
  void emit_metrics(const obs::MetricsRegistry& reg) {
    if (dir_.empty()) return;
    write_file(path(".metrics.csv"), reg.to_csv(), /*append=*/false);
  }

  /// Dumps the trace stream to <id>.trace.jsonl (no-op without
  /// NTCO_BENCH_OUT).
  void emit_trace(const obs::JsonlTraceWriter& trace) {
    if (dir_.empty()) return;
    write_file(path(".trace.jsonl"), trace.str(), /*append=*/false);
  }

 private:
  [[nodiscard]] std::string path(const std::string& suffix) const {
    return dir_ + "/" + id_ + suffix;
  }

  std::string id_;
  std::string dir_;
  std::size_t tables_ = 0;
};

/// Wall-clock microseconds one call of `fn` takes.
template <class Fn>
std::int64_t time_us(Fn&& fn) {
  const auto begin = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - begin)
      .count();
}

/// Samples per warm wall-clock figure.
inline constexpr std::size_t kTimedRuns = 5;

/// A warm wall-clock figure: the median of kTimedRuns calls of `sample`,
/// each returning one timing (time_us around the work, any setup outside
/// it). Take it after the call whose result is reported: no reported byte
/// depends on the timing runs, and the cold first call (scratch growth,
/// cold caches) does not make the figure.
template <class Sample>
std::int64_t warm_median_us(Sample&& sample) {
  std::array<std::int64_t, kTimedRuns> us{};
  for (std::int64_t& u : us) u = sample();
  std::sort(us.begin(), us.end());
  return us[kTimedRuns / 2];
}

}  // namespace ntco::bench
