#pragma once

#include <cstdint>
#include <random>
#include <span>

#include "ntco/common/contracts.hpp"

/// \file rng.hpp
/// Deterministic random number generation.
///
/// All stochastic behaviour in the framework flows through ntco::Rng so that
/// every experiment is reproducible from a single seed. Substreams derived
/// with fork() are statistically independent (SplitMix64 seed derivation), so
/// adding a consumer of randomness in one module does not perturb another.

namespace ntco {

/// Seeded pseudo-random source with the distributions the simulators need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(splitmix64(seed)), seed_(seed) {}

  /// Derives an independent substream. Deterministic in (seed, stream_id).
  [[nodiscard]] Rng fork(std::uint64_t stream_id) const {
    return Rng(splitmix64(seed_ ^ (0x9E3779B97F4A7C15ULL * (stream_id + 1))));
  }

  /// Shard substream `shard` of root stream `seed` — the fleet engine's
  /// seed-derivation scheme (fleet::Replicator gives shard s the stream
  /// `Rng::stream(seed, s)`). Unlike fork()'s single xor-multiply feed,
  /// seed and shard are hashed through independent SplitMix64 rounds
  /// before combining, so nested derivations — a stream() of a stream(),
  /// as F9 uses for (point, replica) pairs — land in a different part of
  /// the keyspace than sibling streams of the same parent.
  [[nodiscard]] static Rng stream(std::uint64_t seed, std::uint64_t shard) {
    const std::uint64_t a = splitmix64(seed ^ 0x8BADF00DDEADBEEFULL);
    const std::uint64_t b = splitmix64(shard + 0x9E3779B97F4A7C15ULL);
    return Rng(splitmix64(a ^ (b + 0x517CC1B727220A95ULL)));
  }

  /// Instance form: shard substream of this stream's own seed.
  [[nodiscard]] Rng stream(std::uint64_t shard) const {
    return stream(seed_, shard);
  }

  /// Uniform real in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) {
    NTCO_EXPECTS(lo <= hi);
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    NTCO_EXPECTS(lo <= hi);
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Bernoulli trial with probability p of true.
  [[nodiscard]] bool bernoulli(double p) {
    NTCO_EXPECTS(p >= 0.0 && p <= 1.0);
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Exponential with the given mean (not rate).
  [[nodiscard]] double exponential(double mean) {
    NTCO_EXPECTS(mean > 0.0);
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  [[nodiscard]] double normal(double mu, double sigma) {
    NTCO_EXPECTS(sigma >= 0.0);
    if (sigma == 0.0) return mu;
    return std::normal_distribution<double>(mu, sigma)(engine_);
  }

  /// Log-normal parameterised by the *location/scale of the underlying
  /// normal* (standard parameterisation).
  [[nodiscard]] double lognormal(double mu, double sigma) {
    NTCO_EXPECTS(sigma >= 0.0);
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  [[nodiscard]] std::uint64_t poisson(double mean) {
    NTCO_EXPECTS(mean >= 0.0);
    if (mean == 0.0) return 0;
    return static_cast<std::uint64_t>(
        std::poisson_distribution<std::uint64_t>(mean)(engine_));
  }

  /// Uniformly chosen element of a non-empty span.
  template <class T>
  [[nodiscard]] const T& pick(std::span<const T> items) {
    NTCO_EXPECTS(!items.empty());
    return items[static_cast<std::size_t>(
        uniform_int(0, static_cast<std::int64_t>(items.size()) - 1))];
  }

  /// Raw 64-bit draw (for hashing / shuffling).
  [[nodiscard]] std::uint64_t next_u64() { return engine_(); }

 private:
  [[nodiscard]] static std::uint64_t splitmix64(std::uint64_t x) {
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
  }

  std::mt19937_64 engine_;
  std::uint64_t seed_ = 0;
};

}  // namespace ntco
