#include <exception>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "ntco/lint/lint.hpp"

/// \file lint_main.cpp
/// `ntco-lint` CLI — the static counterpart to the dynamic determinism
/// gates in tools/ci.sh (artifact diffing) and tools/sanitize.sh
/// (ASan/TSan). See DESIGN.md "Static analysis & determinism contract".
///
///   ntco-lint [--root DIR] [--json-out FILE] [--dump-names] [paths...]
///
/// Scans src/ bench/ tests/ examples/ under --root (or the given relative
/// paths instead), prints `file:line: [Rn] message` for every diagnostic
/// and every stale suppression, and exits non-zero if there is any.

namespace {

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--root DIR] [--json-out FILE] [--dump-names] [paths...]\n"
         "\n"
         "Determinism, layering & telemetry lint for the ntco tree. Rules:\n"
         "  R1  nondeterminism sources outside sanctioned files\n"
         "  R2  iteration over unordered containers\n"
         "  R3  threading primitives outside src/fleet/\n"
         "  R4  module-layering back-edges (declared DAG over ntco includes)\n"
         "  R5  += accumulation of unordered-container lookups\n"
         "  R7  telemetry names missing from src/obs/.../names.hpp (and\n"
         "      dead registry rows)\n"
         "  R8  stale includes / missing direct includes (IWYU-lite)\n"
         "\n"
         "  --json-out FILE  write a JSON report (counts, diagnostics,\n"
         "                   suppressions)\n"
         "  --dump-names     print DESIGN.md markdown tables from the name\n"
         "                   registry and exit\n"
         "\n"
         "Suppress inline (reason mandatory, counted in the report; an\n"
         "allow() that silences nothing is stale and fails the run):\n"
         "  code();  " /* keep the directive non-contiguous in this binary's
                          own source */
      << "// ntco-"
      << "lint: allow(R2) why this is order-insensitive\n"
         "\n"
         "Exit status: 0 clean, 1 diagnostics or stale suppressions,\n"
         "2 usage/config error.\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string root = ".";
  std::string json_out;
  bool dump_names = false;
  std::vector<std::string> roots;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (arg == "--root") {
      if (const char* v = next()) root = v; else return usage(argv[0]);
    } else if (arg == "--json-out") {
      if (const char* v = next()) json_out = v; else return usage(argv[0]);
    } else if (arg == "--dump-names") {
      dump_names = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "ntco-lint: unknown option '" << arg << "'\n";
      return usage(argv[0]);
    } else {
      roots.push_back(arg);
    }
  }

  try {
    ntco::lint::Config cfg = ntco::lint::default_config(root);
    if (!roots.empty()) cfg.roots = roots;

    if (dump_names) {
      const auto entries = ntco::lint::load_names_registry(
          root + "/" + cfg.names_registry);
      if (entries.empty()) {
        std::cerr << "ntco-lint: no entries in " << cfg.names_registry
                  << "\n";
        return 2;
      }
      std::cout << ntco::lint::names_markdown(entries);
      return 0;
    }

    const ntco::lint::Report report = ntco::lint::run(cfg);

    for (const auto& d : report.diagnostics)
      std::cout << d.file << ":" << d.line << ": ["
                << ntco::lint::rule_name(d.rule) << "] " << d.message << "\n";
    for (const auto& s : report.stale_suppressions)
      std::cout << s.file << ":" << s.line << ": stale suppression ("
                << s.rules << ") — its rule no longer fires here\n";

    if (!json_out.empty()) {
      std::ofstream out(json_out, std::ios::binary);
      if (!out) {
        std::cerr << "ntco-lint: cannot write report " << json_out << "\n";
        return 2;
      }
      out << ntco::lint::to_json(report);
    }

    std::cout << "ntco-lint: " << report.files_scanned << " files, "
              << report.diagnostics.size() << " diagnostics, "
              << report.suppressions.size() << " suppressions ("
              << report.stale_suppressions.size() << " stale)\n";
    return report.diagnostics.empty() && report.stale_suppressions.empty()
               ? 0
               : 1;
  } catch (const std::exception& e) {
    std::cerr << "ntco-lint: error: " << e.what() << "\n";
    return 2;
  }
}
