#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "ntco/app/workloads.hpp"
#include "ntco/broker/broker.hpp"
#include "ntco/continuum/federation.hpp"
#include "ntco/edgesim/edge_platform.hpp"
#include "ntco/net/path.hpp"
#include "ntco/obs/metrics.hpp"
#include "ntco/obs/names.hpp"
#include "ntco/obs/trace.hpp"
#include "ntco/serverless/platform.hpp"
#include "ntco/sim/simulator.hpp"

// The telemetry-name registry, src/obs/include/ntco/obs/names.hpp. Call
// sites are checked by the compiler (obs::Name's consteval constructor);
// this file checks the registry itself: its lookup, that every row is used,
// that DESIGN.md's tables are its rows rendered, and, at run time, that
// real broker and continuum scenarios emit only registered names with their
// registered kinds, each trace record with its row's fields in order.
// NTCO_REPO_ROOT is injected by tests/CMakeLists.txt.

namespace ntco {
namespace {

static_assert(obs::registered_kind("sim.event.fired") == obs::NameKind::trace);
static_assert(!obs::registered_kind("sim.event.fried"));
static_assert(obs::registered_kind("core.runs") == obs::NameKind::counter);

std::string_view kind_name(obs::NameKind kind) {
  switch (kind) {
    case obs::NameKind::trace: return "trace";
    case obs::NameKind::counter: return "counter";
    case obs::NameKind::summary: return "summary";
  }
  return "?";
}

/// DESIGN.md's "Observability" tables: trace events with their fields, then
/// metrics grouped by kind, each in registry order.
std::string names_markdown() {
  std::ostringstream o;
  const auto row = [&](const obs::NameRow& r) {
    o << "| `" << r.name << "` | " << (r.fields.empty() ? "—" : r.fields)
      << " |\n";
  };
  o << "### Trace events\n\n| Event | Fields |\n|---|---|\n";
  for (const obs::NameRow& r : obs::kNameRegistry)
    if (r.kind == obs::NameKind::trace) row(r);
  const std::pair<obs::NameKind, const char*> kMetricKinds[] = {
      {obs::NameKind::counter, "Counters"},
      {obs::NameKind::summary, "Summaries"},
  };
  for (const auto& [kind, heading] : kMetricKinds) {
    const bool any = std::any_of(
        std::begin(obs::kNameRegistry), std::end(obs::kNameRegistry),
        [kind = kind](const obs::NameRow& r) { return r.kind == kind; });
    if (!any) continue;
    o << "\n### " << heading << "\n\n| Metric | Notes |\n|---|---|\n";
    for (const obs::NameRow& r : obs::kNameRegistry)
      if (r.kind == kind) row(r);
  }
  return o.str();
}

std::string read_file(const std::filesystem::path& p) {
  std::ifstream in(p, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST(ObsNames, DesignTablesAreTheRegistryRendered) {
  const std::string design =
      read_file(std::filesystem::path(NTCO_REPO_ROOT) / "DESIGN.md");
  ASSERT_FALSE(design.empty());
  const std::string tables = names_markdown();
  EXPECT_NE(design.find(tables), std::string::npos)
      << "DESIGN.md's Observability tables differ from names.hpp; they "
         "should read:\n"
      << tables;
}

TEST(ObsNames, EveryRegistryRowIsUsedUnderSrc) {
  // A row is live when its quoted literal appears in a file under src/
  // other than the registry itself.
  const auto src = std::filesystem::path(NTCO_REPO_ROOT) / "src";
  std::string text;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(src))
    if (entry.is_regular_file() && entry.path().filename() != "names.hpp")
      text += read_file(entry.path());
  ASSERT_FALSE(text.empty());
  for (const obs::NameRow& r : obs::kNameRegistry)
    EXPECT_NE(text.find("\"" + std::string(r.name) + "\""), std::string::npos)
        << r.name << " is registered but nothing under src/ uses it";
}

using FieldKeys = std::vector<std::string>;

/// TraceSink that records, per event name, each distinct list of field keys
/// it was emitted with.
struct RecordingSink final : obs::TraceSink {
  std::map<std::string, std::set<FieldKeys>> names;
  void record(const obs::TraceEvent& ev) override {
    FieldKeys keys;
    for (std::size_t i = 0; i < ev.field_count; ++i)
      keys.emplace_back(ev.fields[i].key);
    names[std::string(ev.name)].insert(std::move(keys));
  }
};

/// The backticked names of a row's fields column, in order, skipping those
/// inside parentheses (units and value lists).
FieldKeys row_keys(std::string_view fields) {
  FieldKeys keys;
  int depth = 0;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (fields[i] == '(') ++depth;
    if (fields[i] == ')') --depth;
    if (fields[i] != '`') continue;
    const std::size_t end = fields.find('`', i + 1);
    if (end == std::string_view::npos) break;
    if (depth == 0) keys.emplace_back(fields.substr(i + 1, end - i - 1));
    i = end;
  }
  return keys;
}

TEST(ObsNames, RowKeysSkipParenthesisedNames) {
  EXPECT_EQ(row_keys("`flow`, `path`, `dir` (`up`/`down`), `bytes`"),
            (FieldKeys{"flow", "path", "dir", "bytes"}));
  EXPECT_EQ(row_keys("`init` (µs)"), (FieldKeys{"init"}));
  EXPECT_EQ(row_keys("malformed jobs rejected at submit()"), FieldKeys{});
}

void expect_traces_registered(const RecordingSink& sink) {
  ASSERT_FALSE(sink.names.empty()) << "scenario emitted no trace records";
  for (const auto& [n, emitted] : sink.names) {
    const auto row = std::find_if(
        std::begin(obs::kNameRegistry), std::end(obs::kNameRegistry),
        [&n = n](const obs::NameRow& r) { return r.name == n; });
    ASSERT_NE(row, std::end(obs::kNameRegistry))
        << "unregistered trace name: " << n;
    EXPECT_EQ(row->kind, obs::NameKind::trace)
        << n << " is registered but not as a trace";
    for (const FieldKeys& keys : emitted)
      EXPECT_EQ(keys, row_keys(row->fields))
          << n << " is emitted with fields its row does not list";
  }
}

void expect_metrics_registered(const obs::MetricsRegistry& metrics) {
  ASSERT_GT(metrics.size(), 0u) << "scenario registered no metrics";
  std::istringstream csv(metrics.to_csv());
  std::string line;
  std::getline(csv, line);  // header
  std::set<std::string> checked;
  while (std::getline(csv, line)) {
    const std::size_t c1 = line.find(',');
    const std::size_t c2 = line.find(',', c1 + 1);
    ASSERT_NE(c2, std::string::npos) << line;
    const std::string name = line.substr(0, c1);
    const std::string kind = line.substr(c1 + 1, c2 - c1 - 1);
    if (!checked.insert(name + "|" + kind).second) continue;
    const std::optional<obs::NameKind> registered = obs::registered_kind(name);
    ASSERT_TRUE(registered) << "unregistered metric name: " << name;
    EXPECT_EQ(kind_name(*registered), kind)
        << name << " is registered but not as a " << kind;
  }
}

TEST(ObsNames, BrokerServePathEmitsOnlyRegisteredNames) {
  sim::Simulator sim;
  serverless::Platform platform(sim, {});
  device::Device ue(device::budget_phone());
  net::NetworkPath path(net::make_fixed_path(net::profile_wifi()));
  core::OffloadController controller(sim, platform, ue, path, {});
  partition::MinCutPartitioner mincut;
  broker::Broker broker(sim, platform, controller, mincut, {});

  RecordingSink sink;
  obs::MetricsRegistry metrics;
  sim.set_trace_sink(&sink);
  platform.attach_observer(&sink, &metrics);
  controller.attach_observer(&sink, &metrics);
  broker.attach_observer(&sink, &metrics);

  const auto g = app::workloads::photo_backup();
  broker::ServeRequest req;
  req.app = &g;
  int done = 0;
  broker.serve(req, [&](const broker::ServeOutcome&) { ++done; });
  broker.serve(req, [&](const broker::ServeOutcome&) { ++done; });
  // One invocation checkpointed while it executes: "faas.checkpoint" and
  // "faas.preempted".
  serverless::FunctionSpec long_fn;
  long_fn.name = "long";
  const serverless::InvocationId long_run = platform.invoke(
      platform.deploy(long_fn), Cycles::giga(50),
      [&](const serverless::InvocationResult& r) {
        if (r.preempted) ++done;
      });
  sim.schedule_after(Duration::seconds(1),
                     [&] { ASSERT_TRUE(platform.checkpoint_preempt(long_run)); });
  sim.run();
  ASSERT_EQ(done, 3);
  platform.publish(metrics);
  controller.publish(metrics);
  broker.publish(metrics);

  expect_traces_registered(sink);
  expect_metrics_registered(metrics);
}

TEST(ObsNames, ContinuumPlacementEmitsOnlyRegisteredNames) {
  sim::Simulator sim;
  edgesim::EdgeConfig ecfg;
  ecfg.servers = 1;
  ecfg.server_speed = Frequency::gigahertz(2.0);
  ecfg.request_overhead = Duration::millis(2);
  edgesim::EdgePlatform edge(sim, ecfg);
  serverless::PlatformConfig ccfg;
  ccfg.cold_start_base = Duration::millis(100);
  ccfg.spot_mean_time_to_preempt = Duration::zero();
  serverless::Platform cloud(sim, ccfg);
  serverless::FunctionSpec fn_spec;
  fn_spec.name = "job";
  fn_spec.memory = DataSize::megabytes(1792);
  fn_spec.image = DataSize::megabytes(10);
  const auto fn = cloud.deploy(fn_spec);

  net::PathSpec lan_spec;
  lan_spec.name = "lan";
  lan_spec.up = {DataRate::megabits_per_second(800), Duration::millis(1), 0.0,
                 0.0};
  lan_spec.down = lan_spec.up;
  net::PathSpec wan_spec;
  wan_spec.name = "wan";
  wan_spec.up = {DataRate::megabits_per_second(40), Duration::millis(25), 0.0,
                 0.0};
  wan_spec.down = wan_spec.up;
  auto lan = net::make_path(lan_spec);
  auto wan = net::make_path(wan_spec);

  continuum::Federation fed(sim);
  fed.add_site(continuum::Site(0, "edge", continuum::SiteTier::Edge, edge, lan));
  fed.add_site(
      continuum::Site(1, "cloud", continuum::SiteTier::Cloud, cloud, fn, wan));

  RecordingSink sink;
  obs::MetricsRegistry metrics;
  sim.set_trace_sink(&sink);
  cloud.attach_observer(&sink, nullptr);
  fed.attach_observer(&sink, &metrics);

  continuum::JobSpec spec;
  spec.work = Cycles::giga(2);
  spec.input = DataSize::megabytes(1);
  spec.output = DataSize::megabytes(1);
  spec.state = DataSize::megabytes(2);
  int done = 0;
  // Two jobs on a one-server edge: the second either queues or spills,
  // widening the set of emitted names past the happy path.
  fed.submit(spec, [&](const continuum::JobOutcome&) { ++done; });
  fed.submit(spec, [&](const continuum::JobOutcome&) { ++done; });
  sim.run();
  ASSERT_EQ(done, 2);
  fed.publish(metrics);

  expect_traces_registered(sink);
  expect_metrics_registered(metrics);
}

}  // namespace
}  // namespace ntco
