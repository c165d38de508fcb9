#include "reference.hpp"

#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

constexpr std::uint32_t kEvents = 6000;
constexpr std::uint64_t kKeys = 1U << 15;

std::uint64_t splitmix(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// One slice; returns a checksum of its outputs, the same on every call.
std::uint64_t run_slice() {
  std::uint64_t rng = 1;
  using Event = std::pair<double, std::uint32_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
  std::unordered_map<std::uint64_t, double> table;
  table.reserve(kKeys);
  for (std::uint32_t i = 0; i < 256; ++i)
    queue.emplace(static_cast<double>(splitmix(rng) % 1000), i);
  std::uint64_t sum = 0;
  for (std::uint32_t n = 0; n < kEvents; ++n) {
    const auto [at, id] = queue.top();
    queue.pop();
    const std::uint64_t r = splitmix(rng);
    double& slot = table[r % kKeys];
    std::vector<double> parts(8 + r % 24);
    for (std::size_t k = 0; k < parts.size(); ++k)
      parts[k] = std::exp2(static_cast<double>(k) * 0.125) + slot;
    double acc = 0.0;
    for (const double p : parts) acc += p / (1.0 + p);
    slot = acc * 1e-3;
    sum += static_cast<std::uint64_t>(acc * 1e3) ^ id;
    queue.emplace(at + 1.0 + static_cast<double>(r >> 54), id);
  }
  return sum ^ table.size();
}

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

ReferenceTime time_reference_slice() {
  static const std::uint64_t expected = run_slice();
  ReferenceTime t;
  const double cpu0 = thread_cpu_seconds();
  const auto t0 = std::chrono::steady_clock::now();
  t.ok = run_slice() == expected;
  t.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                 .count();
  t.cpu_s = thread_cpu_seconds() - cpu0;
  return t;
}

}  // namespace perfbench
