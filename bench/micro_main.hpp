#pragma once

// Shared main() of the micro-benchmarks that mirror their results
// (bench_micro_sim, bench_micro_fabric). It runs the registered
// google-benchmark loops with the console reporter and, when NTCO_BENCH_OUT
// names a directory, writes (name, items/s, ns/item) of every run into
// <dir>/BENCH_<bench>.json. The JSON is written here, not by
// google-benchmark's --benchmark_out, so the schema stays stable and the
// ci.sh regression guard can parse it with POSIX awk. A JSON file that
// cannot be written ends the run with status 1 (bench::write_file).

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"

namespace ntco::bench {

/// One finished benchmark run, as the JSON records it.
struct CapturedRun {
  std::string name;
  double items_per_second = 0.0;
  double ns_per_item = 0.0;
};

/// Console reporter that also keeps every run that did not error.
class MirroringReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred) continue;
      CapturedRun c;
      c.name = run.benchmark_name();
      const auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) {
        c.items_per_second = static_cast<double>(it->second);
        if (c.items_per_second > 0.0) c.ns_per_item = 1e9 / c.items_per_second;
      }
      captured.push_back(std::move(c));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

  std::vector<CapturedRun> captured;
};

/// The JSON document for `bench`'s runs, fields in a fixed order.
inline std::string micro_json(const std::string& bench,
                              const std::vector<CapturedRun>& runs) {
  std::string out = "{\n  \"bench\": \"" + bench + "\",\n  \"results\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    char figures[96];
    std::snprintf(figures, sizeof figures,
                  "\"items_per_second\": %.6g, \"ns_per_item\": %.6g}",
                  runs[i].items_per_second, runs[i].ns_per_item);
    out += "    {\"name\": \"" + runs[i].name + "\", ";
    out += figures;
    out += i + 1 < runs.size() ? ",\n" : "\n";
  }
  out += "  ]\n}\n";
  return out;
}

/// main() of the micro-bench `bench`: "micro_sim" mirrors into
/// BENCH_micro_sim.json.
inline int micro_main(int argc, char** argv, const std::string& bench) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  MirroringReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (const char* dir = std::getenv("NTCO_BENCH_OUT");
      dir != nullptr && dir[0] != '\0')
    write_file(std::string(dir) + "/BENCH_" + bench + ".json",
               micro_json(bench, reporter.captured), /*append=*/false);
  return 0;
}

}  // namespace ntco::bench
