#pragma once

// Outside-in probes for the serve-path benchmark. Nothing here reaches into
// the library: spans are opened around the benchmark's own calls into each
// layer, and two thin decorators wrap the public virtual interfaces the
// library takes from its caller (partition::Partitioner, net::Transport).
//
// A probe with a null recorder only counts calls and never reads a clock,
// so the timed (untraced) runs pay one increment per decorated call.

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ntco/net/transport.hpp"
#include "ntco/partition/partitioners.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t {
  Shard,          ///< one shard body on a fleet worker
  SimRun,         ///< Simulator::run() inside the shard
  Serve,          ///< Broker::serve() for one request
  Plan,           ///< exact partitioner call (decorator)
  HeuristicPlan,  ///< stage-1 heuristic partitioner call (decorator)
  Transport,      ///< one net::Transport timing call (decorator)
  Merge,          ///< the reduce's merge callback, on the orchestrator
};
inline constexpr std::size_t kSpanKinds = 7;
inline constexpr std::array<const char*, kSpanKinds> kSpanNames = {
    "fleet.shard",     "sim.run",       "broker.serve", "partition.plan",
    "partition.heuristic", "net.transport", "fleet.merge"};

inline constexpr std::uint32_t kNoRequest = 0xffffffffU;
inline constexpr std::int32_t kNoParent = -1;

/// One closed interval of host time. `request` is the shard-local request
/// index (inherited from the enclosing span when the call site has none).
struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = kNoParent;
  std::uint32_t request = kNoRequest;
  SpanKind kind = SpanKind::Shard;
};

/// Spans of one shard (or of the orchestrator), in open order. Single-
/// threaded by construction: every shard body owns its recorder.
class SpanRecorder {
 public:
  std::int32_t open(SpanKind kind, std::uint32_t request) {
    const auto id = static_cast<std::int32_t>(spans_.size());
    Span s;
    s.kind = kind;
    if (!stack_.empty()) {
      s.parent = stack_.back();
      if (request == kNoRequest)
        request = spans_[static_cast<std::size_t>(s.parent)].request;
    }
    s.request = request;
    s.start_ns = now_ns();
    spans_.push_back(s);
    stack_.push_back(id);
    return id;
  }

  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
    stack_.pop_back();
  }

  [[nodiscard]] std::vector<Span>& spans() { return spans_; }

  static std::int64_t now_ns() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span; a null recorder makes it a no-op that reads no clock.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, SpanKind kind,
             std::uint32_t request = kNoRequest)
      : rec_(rec), id_(rec != nullptr ? rec->open(kind, request) : 0) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  std::int32_t id_;
};

/// Counts (and, with a recorder, times) every plan() of the wrapped
/// partitioner. Results pass through unchanged.
class ProbedPartitioner final : public ntco::partition::Partitioner {
 public:
  ProbedPartitioner(const ntco::partition::Partitioner& inner, SpanKind kind,
                    SpanRecorder* rec)
      : inner_(inner), kind_(kind), rec_(rec) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] ntco::partition::Partition plan(
      const ntco::partition::CostModel& model) const override {
    ++calls_;
    const ScopedSpan span(rec_, kind_);
    return inner_.plan(model);
  }

  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  const ntco::partition::Partitioner& inner_;
  SpanKind kind_;
  SpanRecorder* rec_;
  mutable std::uint64_t calls_ = 0;  // plan() is const in the interface
};

/// Counts (and, with a recorder, times) every timing call on the wrapped
/// transport. spec() and name() are plain getters and pass through
/// unprobed.
class ProbedTransport final : public ntco::net::Transport {
 public:
  ProbedTransport(ntco::net::Transport& inner, SpanRecorder* rec)
      : inner_(inner), rec_(rec) {}

  [[nodiscard]] const std::string& name() const override {
    return inner_.name();
  }
  [[nodiscard]] const ntco::net::PathSpec& spec() const override {
    return inner_.spec();
  }
  [[nodiscard]] ntco::Duration uplink_time(ntco::DataSize size) override {
    ++calls_;
    const ScopedSpan span(rec_, SpanKind::Transport);
    return inner_.uplink_time(size);
  }
  [[nodiscard]] ntco::Duration downlink_time(ntco::DataSize size) override {
    ++calls_;
    const ScopedSpan span(rec_, SpanKind::Transport);
    return inner_.downlink_time(size);
  }
  [[nodiscard]] ntco::Duration round_trip_time(
      ntco::DataSize request, ntco::DataSize response) override {
    ++calls_;
    const ScopedSpan span(rec_, SpanKind::Transport);
    return inner_.round_trip_time(request, response);
  }
  [[nodiscard]] ntco::net::TransferAttempt attempt(
      ntco::net::LinkDirection dir, ntco::DataSize size) override {
    ++calls_;
    const ScopedSpan span(rec_, SpanKind::Transport);
    return inner_.attempt(dir, size);
  }
  void set_trace(ntco::obs::TraceSink* sink,
                 const ntco::obs::TraceClock* clock) override {
    inner_.set_trace(sink, clock);
  }

  [[nodiscard]] std::uint64_t calls() const { return calls_; }

 private:
  ntco::net::Transport& inner_;
  SpanRecorder* rec_;
  std::uint64_t calls_ = 0;
};

}  // namespace perfbench
