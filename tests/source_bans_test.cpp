#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

// Bans on constructs that would let results depend on more than the seed,
// checked in the raw text of every C++ source under src/, bench/, tests/ and
// examples/:
// - nondeterminism sources (wall clocks, the process environment, <random>
//   engines): randomness comes from ntco::Rng and time from the simulator;
// - threading primitives outside src/fleet/ and src/dataplane/, the two
//   layers that own all concurrency;
// - unordered containers anywhere: their iteration order is unspecified;
// - the telemetry-name escape obs::UnregisteredName under src/, so that
//   every name the library emits goes through the registry check.
//
// A ban matches whole identifiers, and the names in `#include <...>` lines.
// There is no comment stripping and no suppression syntax: the path lists
// below are the only exceptions. The exact backstops for determinism are
// the sha256 pins and digests in tools/ci.sh and the TSan run; this test
// keeps the known sources of drift out of the tree. NTCO_REPO_ROOT is
// injected by tests/CMakeLists.txt.

namespace {

struct Ban {
  std::string_view what;
  std::vector<std::string_view> words;    ///< whole identifiers
  std::vector<std::string_view> headers;  ///< names in #include <...>
  std::vector<std::string_view> scope;    ///< path prefixes it covers
  std::vector<std::string_view> exempt;   ///< path prefixes it skips
};

const Ban kBans[] = {
    {"nondeterminism source",
     {"random_device", "mt19937", "mt19937_64", "minstd_rand",
      "minstd_rand0", "default_random_engine", "system_clock",
      "steady_clock", "high_resolution_clock", "getenv", "rand", "srand",
      "gettimeofday", "localtime", "gmtime"},
     {"random", "chrono", "ctime"},
     // bench/ times itself and reads NTCO_BENCH_OUT; its wall-clock
     // figures go to stderr, never into an artifact.
     {"src/", "tests/", "examples/"},
     {"src/common/include/ntco/common/rng.hpp",  // owns the engine
      "src/fleet/src/replicator.cpp"}},          // reads NTCO_THREADS
    {"threading primitive",
     {"std::thread", "std::jthread", "std::this_thread", "std::mutex",
      "std::timed_mutex", "std::recursive_mutex",
      "std::recursive_timed_mutex", "std::shared_mutex",
      "std::shared_timed_mutex", "std::atomic", "std::atomic_flag",
      "std::atomic_ref", "std::condition_variable",
      "std::condition_variable_any", "std::lock_guard", "std::unique_lock",
      "std::shared_lock", "std::scoped_lock", "std::async", "std::future",
      "std::shared_future", "std::promise", "std::packaged_task",
      "std::barrier", "std::latch", "std::counting_semaphore",
      "std::binary_semaphore"},
     {"thread", "mutex", "shared_mutex", "atomic", "condition_variable",
      "future", "barrier", "latch", "semaphore", "stop_token"},
     {"src/", "bench/", "tests/", "examples/"},
     {"src/fleet/", "src/dataplane/"}},
    {"unordered container",
     {"unordered_map", "unordered_set", "unordered_multimap",
      "unordered_multiset"},
     {"unordered_map", "unordered_set"},
     {"src/", "bench/", "tests/", "examples/"},
     {}},
    {"unregistered telemetry name",
     {"UnregisteredName"},
     {},
     {"src/"},
     {"src/obs/include/ntco/obs/names.hpp"}},  // defines it
};

// This file spells every banned word; the tree walk skips it.
constexpr std::string_view kThisFile = "tests/source_bans_test.cpp";

bool starts_with_any(std::string_view path,
                     const std::vector<std::string_view>& prefixes) {
  return std::any_of(prefixes.begin(), prefixes.end(),
                     [&](std::string_view p) { return path.starts_with(p); });
}

bool is_ident(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

bool has_word(std::string_view line, std::string_view word) {
  for (std::size_t at = line.find(word); at != std::string_view::npos;
       at = line.find(word, at + 1)) {
    const std::size_t end = at + word.size();
    if ((at == 0 || !is_ident(line[at - 1])) &&
        (end == line.size() || !is_ident(line[end])))
      return true;
  }
  return false;
}

/// The name in `#include <name>`, or empty.
std::string_view system_include(std::string_view line) {
  const auto skip_blanks = [&] {
    while (!line.empty() && (line.front() == ' ' || line.front() == '\t'))
      line.remove_prefix(1);
  };
  skip_blanks();
  if (!line.starts_with('#')) return {};
  line.remove_prefix(1);
  skip_blanks();
  if (!line.starts_with("include")) return {};
  line.remove_prefix(7);
  skip_blanks();
  if (!line.starts_with('<')) return {};
  const std::size_t close = line.find('>');
  if (close == std::string_view::npos) return {};
  return line.substr(1, close - 1);
}

/// `line: token (what)` for every construct of `ban` in `text`, whatever
/// the path.
std::vector<std::string> matches(const Ban& ban, std::string_view text) {
  std::vector<std::string> found;
  std::istringstream lines{std::string(text)};
  std::string line;
  for (int n = 1; std::getline(lines, line); ++n) {
    const std::string_view header = system_include(line);
    for (std::string_view h : ban.headers)
      if (header == h)
        found.push_back(std::to_string(n) + ": <" + std::string(h) + "> (" +
                        std::string(ban.what) + ")");
    for (std::string_view w : ban.words)
      if (has_word(line, w))
        found.push_back(std::to_string(n) + ": " + std::string(w) + " (" +
                        std::string(ban.what) + ")");
  }
  return found;
}

bool covers(const Ban& ban, std::string_view path) {
  return starts_with_any(path, ban.scope) && !starts_with_any(path, ban.exempt);
}

/// Every banned construct in `text`, as the file at `path` (relative to the
/// repository root).
std::vector<std::string> scan(std::string_view path, std::string_view text) {
  std::vector<std::string> found;
  for (const Ban& b : kBans)
    if (covers(b, path))
      for (std::string& m : matches(b, text)) found.push_back(std::move(m));
  return found;
}

bool flagged(std::string_view path, std::string_view line) {
  return !scan(path, line).empty();
}

bool is_cpp_source(const std::filesystem::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

struct Source {
  std::string path;  ///< relative to the repository root
  std::string text;
};

/// Every C++ source under src/, bench/, tests/ and examples/, in path order.
/// A file that cannot be read has empty text.
std::vector<Source> tree_sources() {
  const std::filesystem::path root(NTCO_REPO_ROOT);
  std::vector<Source> tree;
  for (const char* dir : {"src", "bench", "tests", "examples"})
    for (const auto& entry :
         std::filesystem::recursive_directory_iterator(root / dir))
      if (entry.is_regular_file() && is_cpp_source(entry.path())) {
        std::ifstream in(entry.path(), std::ios::binary);
        std::ostringstream text;
        text << in.rdbuf();
        tree.push_back(
            {entry.path().lexically_relative(root).generic_string(),
             text.str()});
      }
  std::sort(tree.begin(), tree.end(),
            [](const Source& a, const Source& b) { return a.path < b.path; });
  return tree;
}

// The violating lines of the nondeterminism and threading fixtures, each
// breaking one ban.
const char* const kNondeterminismLines[] = {
    "#include <chrono>",
    "#include <random>",
    "  std::random_device entropy;",
    "  const auto wall = std::chrono::system_clock::now();",
    "  const auto tick = std::chrono::steady_clock::now();",
    "  const char* override_ms = std::getenv(\"FAKE_LATENCY\");",
    "  const int noise = std::rand();",
};
const char* const kThreadingLines[] = {
    "#include <atomic>",
    "#include <mutex>",
    "#include <thread>",
    "  std::atomic<int> hits{0};",
    "  std::mutex mu;",
    "  std::thread worker([&] { hits.fetch_add(1); });",
    "    std::lock_guard<std::mutex> lock(mu);",
};

constexpr std::string_view kLibraryFile = "src/core/src/fixture.cpp";

TEST(SourceBans, TreeHasNoBannedConstruct) {
  const std::vector<Source> tree = tree_sources();
  ASSERT_GT(tree.size(), 100u) << "wrong root: " << NTCO_REPO_ROOT;

  std::string report;
  for (const Source& s : tree) {
    if (s.path == kThisFile) continue;
    EXPECT_FALSE(s.text.empty()) << s.path << " is empty or unreadable";
    for (const std::string& f : scan(s.path, s.text))
      report += s.path + ":" + f + "\n";
  }
  EXPECT_TRUE(report.empty()) << report;
}

// An exemption stays only while a file it covers would be flagged without
// it; one that has outlived its reason is deleted from kBans.
TEST(SourceBans, EveryExemptionIsNeeded) {
  const std::vector<Source> tree = tree_sources();
  ASSERT_GT(tree.size(), 100u) << "wrong root: " << NTCO_REPO_ROOT;
  for (const Ban& b : kBans)
    for (std::string_view prefix : b.exempt) {
      const auto needs_it = [&](const Source& s) {
        return s.path.starts_with(prefix) &&
               starts_with_any(s.path, b.scope) && !matches(b, s.text).empty();
      };
      EXPECT_TRUE(std::any_of(tree.begin(), tree.end(), needs_it))
          << prefix << " is exempt from the " << b.what
          << " ban but spells none of it";
    }
}

TEST(SourceBans, FlagsNondeterminismSources) {
  for (const char* line : kNondeterminismLines)
    EXPECT_TRUE(flagged(kLibraryFile, line)) << line;
}

// A loop over, or a `+=` from, an unordered container carries no banned word
// itself; the ban catches the container's header and its type where it is
// declared, which every such loop or sum needs.
TEST(SourceBans, FlagsUnorderedContainerLoops) {
  const char* const kLines[] = {
      "#include <unordered_map>",
      "#include <unordered_set>",
      "double total_latency(const std::unordered_map<std::string, double>& "
      "by_user) {",
      "int count_even(const std::unordered_set<int>& seen) {",
      "double sum_iter(const std::unordered_map<int, double>& weights) {",
  };
  for (const char* line : kLines)
    EXPECT_TRUE(flagged(kLibraryFile, line)) << line;
}

TEST(SourceBans, FlagsUnorderedAccumulationSources) {
  const char* const kLines[] = {
      "#include <unordered_map>",
      "                std::unordered_map<int, double>& weights) {",
  };
  for (const char* line : kLines)
    EXPECT_TRUE(flagged(kLibraryFile, line)) << line;
}

TEST(SourceBans, FlagsThreadingPrimitives) {
  for (const char* line : kThreadingLines) {
    EXPECT_TRUE(flagged(kLibraryFile, line)) << line;
    EXPECT_TRUE(flagged("bench/bench_x.cpp", line)) << line;
    EXPECT_TRUE(flagged("tests/x_test.cpp", line)) << line;
  }
}

// Names that only look like banned words: identifier boundaries hold.
TEST(SourceBans, LookalikeIdentifiersPass) {
  EXPECT_FALSE(flagged(kLibraryFile,
                       "double exec_time(double work) { return work * 2.0; }"));
  EXPECT_FALSE(
      flagged(kLibraryFile, "  const double runtime_ = exec_time(base);"));
  EXPECT_FALSE(flagged(kLibraryFile, "  double operand = 0.0;"));
}

// rng.hpp owns the engine, replicator.cpp reads NTCO_THREADS and bench/
// times itself; each is exempt from this ban alone.
TEST(SourceBans, NondeterminismExemptionsAreScoped) {
  for (const char* line : kNondeterminismLines) {
    EXPECT_FALSE(flagged("bench/bench_common.hpp", line)) << line;
    EXPECT_TRUE(flagged("tests/x_test.cpp", line)) << line;
    EXPECT_TRUE(flagged("examples/x.cpp", line)) << line;
  }
  const std::string_view rng = "src/common/include/ntco/common/rng.hpp";
  EXPECT_FALSE(flagged(rng, "std::mt19937_64 engine;"));
  EXPECT_TRUE(flagged(rng, "std::unordered_map<int, int> m;"));
  EXPECT_TRUE(flagged(rng, "std::mutex mu;"));

  const std::string_view replicator = "src/fleet/src/replicator.cpp";
  EXPECT_FALSE(flagged(replicator, "std::getenv(\"NTCO_THREADS\");"));
  EXPECT_TRUE(flagged(replicator, "std::unordered_set<int> s;"));
  EXPECT_TRUE(flagged("src/fleet/src/other.cpp", "std::getenv(\"X\");"));

  EXPECT_TRUE(flagged("bench/bench_x.cpp", "std::unordered_set<int> s;"));
}

// src/fleet/ and src/dataplane/ own all concurrency, and may thread but not
// read a clock; words that merely resemble the vocabulary pass anywhere.
TEST(SourceBans, ThreadingExemptionsAreScoped) {
  for (const char* line : kThreadingLines) {
    EXPECT_FALSE(flagged("src/fleet/src/pool_extras.cpp", line)) << line;
    EXPECT_FALSE(flagged("src/dataplane/src/engine.cpp", line)) << line;
  }
  EXPECT_TRUE(flagged("src/dataplane/src/engine.cpp", "#include <chrono>"));
  EXPECT_TRUE(flagged("src/fleet/src/pool_extras.cpp",
                      "std::unordered_map<int, int> m;"));

  EXPECT_FALSE(flagged(kLibraryFile, "  std::size_t thread_count = 4;"));
  EXPECT_FALSE(flagged(kLibraryFile, "  bool atomic_commits = true;"));
}

TEST(SourceBans, UnregisteredNameIsBannedUnderSrcOnly) {
  EXPECT_TRUE(flagged("src/core/src/x.cpp", "obs::UnregisteredName(\"x\")"));
  EXPECT_FALSE(flagged("tests/x_test.cpp", "obs::UnregisteredName(\"x\")"));
  EXPECT_FALSE(flagged("src/obs/include/ntco/obs/names.hpp",
                       "struct UnregisteredName {"));
}

}  // namespace
