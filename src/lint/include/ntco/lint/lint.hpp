#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

/// \file lint.hpp
/// `ntco-lint`: repo-specific determinism, layering, telemetry-name, and
/// include-hygiene static analysis — a two-phase, cross-file analyzer.
///
/// **Phase 1** builds a per-file index: the stripped token stream (comments
/// and string/char literals blanked, raw strings with arbitrary delimiters
/// handled), the `ntco/` include edges, the `ntco::` symbols a header
/// declares and a file uses (brace/namespace tracking separates
/// namespace-scope declarations from locals), the string literals reaching
/// `obs` telemetry calls, suppression directives, and the file-local rule
/// findings. A cold full-tree run takes a fraction of a second.
///
/// **Phase 2** runs the cross-file rules over the combined index and
/// applies suppressions uniformly:
///
///   R1  no nondeterminism sources (`std::random_device`, `rand`, wall
///       clocks, `getenv`, raw `<random>` engines) outside a small
///       sanctioned allowlist (rng.hpp, replicator.cpp, bench harness),
///   R2  no *iteration* over `std::unordered_map` / `std::unordered_set`
///       (range-for, or `.begin()` inside a `for` header) — declaration and
///       point lookup stay legal; sorted extraction stays legal,
///   R3  no threading primitives outside `src/fleet/`,
///   R4  module layering: every `#include <ntco/MOD/...>` edge must be a
///       forward edge of the declared module DAG (reachability over direct
///       deps); unknown modules and back-edges are rejected, and a cyclic
///       *declared* DAG is itself an error,
///   R5  no floating-point `+=` accumulation of values obtained from
///       unordered containers (`m[k]`, `m.at(k)`), whose visitation order
///       is not shard-ordered,
///   R7  telemetry-name contract: every string literal reaching
///       `obs::emit(...)` / `counter(...)` / `gauge(...)` / `summary(...)`
///       / `histogram(...)` / `trace_event(...)` under src/ must appear in
///       the central registry `src/obs/include/ntco/obs/names.hpp` with the
///       matching kind, and the registry must contain no dead or duplicate
///       names,
///   R8  include hygiene (IWYU-lite): an `ntco/` header include is stale if
///       none of the header's declared symbols are used in the including
///       file; a qualified use (`mod::Symbol`) whose unique declaring
///       header is not directly included is a missing include.
///
/// Allocation on the serving path and kernel-handler size are not lint
/// rules: tests/allocation_count_test.cpp counts every `operator new`, and
/// sim::Simulator::heap_handlers() counts handlers that overflow the inline
/// buffer — exact checks instead of token patterns.
///
/// Diagnostics are `file:line: [Rn] message`. Inline suppression:
///
///   some_code();  // ntco-lint: allow(R2) reason why this is safe
///
/// The directive covers its own line and the next line, the reason is
/// mandatory (a missing reason is itself a `[sup]` diagnostic and the
/// suppression does not apply), and every honoured suppression is counted
/// in the report. A suppression that silences nothing is *stale*
/// (`Report::stale_suppressions`) and fails the CLI like a diagnostic, so
/// dead allow-comments cannot accumulate.
///
/// The analyzer is token/regex-plus-context, not a real C++ front end: it
/// strips comments and string/char literals, then pattern-matches with
/// identifier-boundary context. See DESIGN.md "Static analysis &
/// determinism contract" for rule rationale and known heuristic gaps.

namespace ntco::lint {

/// Rule identifiers. `Sup` is the meta-rule for malformed suppressions.
enum class Rule : std::uint8_t { R1, R2, R3, R4, R5, R7, R8, Sup };

/// "R1".."R8", or "sup".
[[nodiscard]] const char* rule_name(Rule r);

struct Diagnostic {
  std::string file;  ///< path relative to Config::root, '/'-separated
  int line = 0;      ///< 1-based
  Rule rule = Rule::R1;
  std::string message;
  /// Line-number-free identity `file|rule|detail`.
  std::string fingerprint;
};

/// One honoured inline `ntco-lint: allow(...)` directive.
struct Suppression {
  std::string file;
  int line = 0;
  std::string rules;   ///< as written, e.g. "R2" or "R2,R5"
  std::string reason;  ///< mandatory free text after the rule list
};

struct Config {
  /// Directory all scan roots and reported paths are relative to.
  std::string root = ".";
  /// Directories or single files (relative to `root`) to scan.
  std::vector<std::string> roots{"src", "bench", "tests", "examples"};
  /// Relative-path prefixes to skip (the lint's own violation fixtures).
  std::vector<std::string> exclude{"tests/lint_fixtures/"};
  /// R1 sanctioned files/dirs (relative-path prefixes): the Rng engine
  /// itself, the NTCO_THREADS env probe (fleet::default_thread_count), and
  /// the bench harness (which times itself with steady_clock and reads
  /// NTCO_BENCH_OUT).
  std::vector<std::string> r1_allow{
      "src/common/include/ntco/common/rng.hpp",
      "src/fleet/src/replicator.cpp",
      "bench/",
  };
  /// R3 sanctioned prefixes: the only concurrent code in the repo.
  std::vector<std::string> r3_allow{"src/fleet/", "src/dataplane/"};
  /// R4 declared module DAG: module -> direct dependencies. An include
  /// edge is legal iff its target is reachable from the includer.
  /// Files under bench/, tests/, examples/, tools/ map to the pseudo
  /// module "top", which may include everything.
  std::map<std::string, std::vector<std::string>> dag;
  /// R7: path (relative to root) of the telemetry-name registry. Missing
  /// file disables R7 (fixture trees carry their own registry).
  std::string names_registry = "src/obs/include/ntco/obs/names.hpp";
  /// R7/R8 apply to files under these prefixes (production sources only:
  /// tests and benches mint ad-hoc names and include convenience-first).
  std::vector<std::string> r7_scope{"src/"};
  std::vector<std::string> r8_scope{"src/"};
};

/// Config with the repo's declared DAG and allowlists, rooted at `root`.
[[nodiscard]] Config default_config(std::string root);

struct Report {
  std::vector<Diagnostic> diagnostics;  ///< unsuppressed findings
  std::vector<Suppression> suppressions;
  /// Directives that silenced nothing this run: dead allow-comments whose
  /// rule no longer fires at their site.
  std::vector<Suppression> stale_suppressions;
  std::size_t files_scanned = 0;
};

/// Analyzes one file's `contents` as `rel_path` under `cfg`, appending to
/// `out`. Exposed so the fixture tests can drive single files; cross-file
/// rules degrade gracefully (R8 can only see this one file's declarations).
/// Throws std::runtime_error if cfg.dag is cyclic.
void analyze_source(const Config& cfg, const std::string& rel_path,
                    const std::string& contents, Report& out);

/// Walks cfg.roots under cfg.root (deterministic path order), indexes every
/// C++ source file (.hpp/.cpp/.h/.cc/.hxx/.cxx), and runs both phases.
[[nodiscard]] Report run(const Config& cfg);

/// Machine-readable report: scanned/diagnostic/suppression counts, every
/// diagnostic, every suppression, and the stale suppressions.
[[nodiscard]] std::string to_json(const Report& report);

// ---------------------------------------------------------------------------
// Telemetry-name registry (R7).

/// One row of src/obs/include/ntco/obs/names.hpp:
///   NTCO_OBS_NAME(kIdent, kind, "dotted.name", "field, field")
struct ObsNameEntry {
  std::string ident;   ///< C++ constant name, e.g. "kSimEventFired"
  std::string kind;    ///< trace | counter | gauge | summary | histogram
  std::string name;    ///< the wire name, e.g. "sim.event.fired"
  std::string fields;  ///< documented fields / unit note (may be empty)
  int line = 0;        ///< 1-based line of the entry in the registry
};

/// Parses the registry. Returns an empty vector if the file is missing;
/// malformed rows are skipped (R7 reports duplicates/dead names — syntax
/// errors in the registry surface as dead call-site names).
[[nodiscard]] std::vector<ObsNameEntry> load_names_registry(
    const std::string& path);

/// Renders the registry as the two markdown tables embedded in DESIGN.md
/// ("Trace events" with fields, then metrics grouped by kind) — the tables
/// are generated from the registry, never hand-maintained.
[[nodiscard]] std::string names_markdown(
    const std::vector<ObsNameEntry>& entries);

}  // namespace ntco::lint
