#include "ntco/obs/metrics.hpp"
#include "ntco/obs/trace.hpp"

#include <gtest/gtest.h>

#include "ntco/app/workloads.hpp"
#include "ntco/core/controller.hpp"
#include "ntco/net/path.hpp"

namespace ntco::obs {
namespace {

// ---------------------------------------------------------------------------
// JSONL trace writer: exact rendering.

TEST(JsonlTraceWriter, RendersRecordsExactly) {
  JsonlTraceWriter w;
  emit(&w, TimePoint::at(Duration::micros(1500)), "faas.cold_start",
       {{"fn", std::uint64_t{0}}, {"init", Duration::micros(180600)}});
  emit(&w, TimePoint::at(Duration::millis(2)), "net.link.loss",
       {{"link", "4g/up"}, {"timeout", false}});
  emit(&w, TimePoint::origin(), "sim.event.fired", {});
  EXPECT_EQ(w.record_count(), 3u);
  EXPECT_EQ(w.str(),
            "{\"t_us\":1500,\"ev\":\"faas.cold_start\",\"fn\":0,"
            "\"init\":180600}\n"
            "{\"t_us\":2000,\"ev\":\"net.link.loss\",\"link\":\"4g/up\","
            "\"timeout\":false}\n"
            "{\"t_us\":0,\"ev\":\"sim.event.fired\"}\n");
}

TEST(JsonlTraceWriter, EscapesStringsAndRendersAllKinds) {
  JsonlTraceWriter w;
  emit(&w, TimePoint::origin(), UnregisteredName("test"),
       {{"s", "a\"b\\c\nd"},
        {"i", std::int64_t{-7}},
        {"d", 0.25},
        {"b", true}});
  EXPECT_EQ(w.str(),
            "{\"t_us\":0,\"ev\":\"test\",\"s\":\"a\\\"b\\\\c\\nd\","
            "\"i\":-7,\"d\":0.25,\"b\":true}\n");
  w.clear();
  EXPECT_EQ(w.record_count(), 0u);
  EXPECT_TRUE(w.str().empty());
}

TEST(Emit, NullSinkIsANoOp) {
  // Must not crash.
  emit(nullptr, TimePoint::origin(), UnregisteredName("never"), {{"k", 1.0}});
  CountingSink sink;
  emit(&sink, TimePoint::origin(), UnregisteredName("once"));
  EXPECT_EQ(sink.count(), 1u);
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(MetricsRegistry, CounterGaugeSummaryArithmetic) {
  MetricsRegistry reg;
  reg.counter(UnregisteredName("a.hits")).add();
  reg.counter(UnregisteredName("a.hits")).add(4);
  EXPECT_EQ(reg.counter(UnregisteredName("a.hits")).value(), 5u);

  auto& s = reg.summary(UnregisteredName("a.wait_ms"));
  s.add(1.0);
  s.add(3.0);
  EXPECT_EQ(reg.summary(UnregisteredName("a.wait_ms")).count(), 2u);
  EXPECT_DOUBLE_EQ(reg.summary(UnregisteredName("a.wait_ms")).mean(), 2.0);

  // Same name -> same instrument, not a fresh one.
  EXPECT_EQ(&reg.counter(UnregisteredName("a.hits")),
            &reg.counter(UnregisteredName("a.hits")));
  EXPECT_EQ(reg.size(), 2u);

  const Counter* hit = reg.find_counter("a.hits");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->value(), 5u);
  EXPECT_EQ(reg.find_counter("a.wait_ms"), nullptr);  // a summary's name
}

TEST(MetricsRegistry, CsvIsSortedAndComplete) {
  MetricsRegistry reg;
  reg.counter(UnregisteredName("z.last")).add(2);
  reg.counter(UnregisteredName("a.first")).add(1);
  reg.summary(UnregisteredName("m.mid")).add(-1.5);
  const std::string csv = reg.to_csv();
  EXPECT_EQ(csv.rfind("metric,kind,field,value\n", 0), 0u);
  const auto a = csv.find("a.first,counter,value,1");
  const auto m = csv.find("m.mid,summary,count,1");
  const auto z = csv.find("z.last,counter,value,2");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(m, std::string::npos);
  ASSERT_NE(z, std::string::npos);
  EXPECT_LT(a, m);
  EXPECT_LT(m, z);
}

TEST(MetricsRegistry, MergeFromCombinesEveryKind) {
  MetricsRegistry a, b;
  a.counter(UnregisteredName("hits")).add(3);
  b.counter(UnregisteredName("hits")).add(4);
  b.counter(UnregisteredName("only_b")).add(1);
  a.summary(UnregisteredName("wait")).add(1.0);
  b.summary(UnregisteredName("wait")).add(3.0);

  a.merge_from(b);
  EXPECT_EQ(a.counter(UnregisteredName("hits")).value(), 7u);
  EXPECT_EQ(a.counter(UnregisteredName("only_b")).value(), 1u);
  EXPECT_EQ(a.summary(UnregisteredName("wait")).count(), 2u);
  EXPECT_DOUBLE_EQ(a.summary(UnregisteredName("wait")).mean(), 2.0);
}

TEST(MetricsRegistry, MergedDumpIsGroupingIndependent) {
  // Three per-shard registries reduced ((s0+s1)+s2) versus (s0+(s1+s2)):
  // the CSV dumps must be byte-identical — the property the fleet relies
  // on to make NTCO_THREADS invisible in merged artifacts.
  const auto shard = [](std::uint64_t i) {
    MetricsRegistry r;
    r.counter(UnregisteredName("faas.invocations")).add(10 + i);
    r.summary(UnregisteredName("exec_ms")).add(static_cast<double>(1 + i));
    r.summary(UnregisteredName("exec_ms"))
        .add(static_cast<double>(5 * (i + 1)));
    return r;
  };

  MetricsRegistry left;  // ((s0 + s1) + s2)
  left.merge_from(shard(0));
  left.merge_from(shard(1));
  left.merge_from(shard(2));

  MetricsRegistry mid;  // s0 + (s1 + s2)
  mid.merge_from(shard(1));
  mid.merge_from(shard(2));
  MetricsRegistry right;
  right.merge_from(shard(0));
  right.merge_from(mid);

  EXPECT_EQ(left.to_csv(), right.to_csv());
}

TEST(JsonlTraceWriter, AppendFromStitchesInCallOrder) {
  JsonlTraceWriter s0, s1, all;
  emit(&s0, TimePoint::at(Duration::micros(10)), UnregisteredName("shard0.ev"));
  emit(&s1, TimePoint::at(Duration::micros(5)), UnregisteredName("shard1.ev"));
  all.append_from(s0);
  all.append_from(s1);
  EXPECT_EQ(all.record_count(), 2u);
  EXPECT_EQ(all.str(), s0.str() + s1.str());
}

// ---------------------------------------------------------------------------
// End-to-end: determinism and the disabled-by-default guarantee.

struct Fixture {
  sim::Simulator sim;
  serverless::Platform platform;
  device::Device ue;
  net::NetworkPath path;
  core::OffloadController controller;

  Fixture()
      : platform(sim, {}),
        ue(device::budget_phone()),
        path(net::make_fixed_path(net::profile_4g())),
        controller(sim, platform, ue, path, {}) {}
};

/// One fully observed end-to-end run; returns the artifacts.
struct Observed {
  std::string trace;
  std::string metrics_csv;
  core::ExecutionReport report;
};

Observed observed_run() {
  Fixture fx;
  JsonlTraceWriter trace;
  MetricsRegistry metrics;
  fx.sim.set_trace_sink(&trace);
  fx.platform.attach_observer(&trace, &metrics);
  fx.controller.attach_observer(&trace, &metrics);
  fx.path.set_trace(&trace, &fx.sim);
  const auto g = app::workloads::ml_batch_training();
  const auto plan =
      fx.controller.prepare(g, partition::MinCutPartitioner{});
  const auto report = fx.controller.execute(plan, g);
  fx.platform.publish(metrics);
  fx.controller.publish(metrics);
  return {trace.str(), metrics.to_csv(), report};
}

TEST(Determinism, IdenticalRunsProduceByteIdenticalArtifacts) {
  const auto first = observed_run();
  const auto second = observed_run();
  EXPECT_GT(first.trace.size(), 0u);
  EXPECT_EQ(first.trace, second.trace);
  EXPECT_EQ(first.metrics_csv, second.metrics_csv);
}

TEST(Determinism, TraceCoversEveryLayer) {
  const auto run = observed_run();
  EXPECT_NE(run.trace.find("\"ev\":\"sim.event.fired\""), std::string::npos);
  EXPECT_NE(run.trace.find("\"ev\":\"faas.invoke\""), std::string::npos);
  EXPECT_NE(run.trace.find("\"ev\":\"faas.cold_start\""), std::string::npos);
  EXPECT_NE(run.trace.find("\"ev\":\"ctl.run.begin\""), std::string::npos);
  EXPECT_NE(run.trace.find("\"ev\":\"ctl.run.end\""), std::string::npos);
  EXPECT_NE(run.metrics_csv.find("serverless.invocations"),
            std::string::npos);
  EXPECT_NE(run.metrics_csv.find("core.runs"), std::string::npos);
}

TEST(DisabledByDefault, UntracedRunRecordsNothingAndBehavesIdentically) {
  // No sink attached: nothing may be recorded anywhere...
  Fixture fx;
  const auto g = app::workloads::ml_batch_training();
  const auto plan =
      fx.controller.prepare(g, partition::MinCutPartitioner{});
  const auto plain = fx.controller.execute(plan, g);

  // ...and attaching one must observe, not perturb: the measured report
  // matches the untraced run bit for bit.
  const auto traced = observed_run();
  EXPECT_EQ(plain.makespan, traced.report.makespan);
  EXPECT_EQ(plain.device_energy, traced.report.device_energy);
  EXPECT_EQ(plain.cloud_cost, traced.report.cloud_cost);
  EXPECT_EQ(plain.remote_invocations, traced.report.remote_invocations);
  EXPECT_EQ(plain.cold_starts, traced.report.cold_starts);
}

TEST(DisabledByDefault, DetachResetsToZeroCost) {
  Fixture fx;
  CountingSink sink;
  fx.sim.set_trace_sink(&sink);
  fx.sim.schedule_after(Duration::millis(1), [] {});
  fx.sim.run();
  EXPECT_GT(sink.count(), 0u);

  const auto before = sink.count();
  fx.sim.set_trace_sink(nullptr);
  fx.sim.schedule_after(Duration::millis(1), [] {});
  fx.sim.run();
  EXPECT_EQ(sink.count(), before);
}

TEST(SimulatorTrace, EmitsScheduledFiredCancelled) {
  sim::Simulator sim;
  JsonlTraceWriter trace;
  sim.set_trace_sink(&trace);
  const auto keep = sim.schedule_after(Duration::millis(1), [] {});
  (void)keep;
  const auto drop = sim.schedule_after(Duration::millis(2), [] {});
  sim.cancel(drop);
  sim.run();
  const auto& s = trace.str();
  EXPECT_NE(s.find("\"ev\":\"sim.event.scheduled\""), std::string::npos);
  EXPECT_NE(s.find("\"ev\":\"sim.event.fired\""), std::string::npos);
  EXPECT_NE(s.find("\"ev\":\"sim.event.cancelled\""), std::string::npos);
}

}  // namespace
}  // namespace ntco::obs
