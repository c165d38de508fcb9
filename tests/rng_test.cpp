#include "ntco/common/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "ntco/common/error.hpp"

namespace ntco {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  Rng base(7);
  Rng f1 = base.fork(1);
  Rng f1b = Rng(7).fork(1);
  Rng f2 = base.fork(2);
  EXPECT_EQ(f1.next_u64(), f1b.next_u64());
  EXPECT_NE(Rng(7).fork(1).next_u64(), f2.next_u64());
}

TEST(Rng, ForkDoesNotPerturbParent) {
  Rng a(9), b(9);
  (void)a.fork(5);
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamIsDeterministic) {
  Rng a = Rng::stream(42, 7);
  Rng b = Rng::stream(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
  // Instance form agrees with the static form.
  Rng c = Rng(42).stream(7);
  Rng d = Rng::stream(42, 7);
  EXPECT_EQ(c.next_u64(), d.next_u64());
}

TEST(Rng, StreamShardsArePairwiseDistinct) {
  // 64 shards — the widest fleet a test machine plausibly runs — must
  // produce pairwise-distinct draw sequences from one root seed.
  constexpr std::size_t kShards = 64;
  constexpr std::size_t kDraws = 16;
  std::vector<std::array<std::uint64_t, kDraws>> draws(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    Rng r = Rng::stream(2026, s);
    for (auto& d : draws[s]) d = r.next_u64();
  }
  for (std::size_t i = 0; i < kShards; ++i)
    for (std::size_t j = i + 1; j < kShards; ++j)
      EXPECT_NE(draws[i], draws[j]) << "shards " << i << " and " << j;
}

TEST(Rng, StreamOfStreamDoesNotCollideWithSiblings) {
  // Regression guard for nested seed derivation: sweeps over points and
  // replicas (F9 on fleet::Replicator) hand pair (point p, replica r) the
  // stream Rng::stream(seed, p).stream(r). None of those nested streams may
  // collide with a sibling stream of the root, nor with another
  // (point, replica) pair.
  constexpr std::uint64_t kSeed = 99;
  std::vector<std::uint64_t> first_draws;
  for (std::uint64_t s = 0; s < 32; ++s)
    first_draws.push_back(Rng::stream(kSeed, s).next_u64());
  for (std::uint64_t p = 0; p < 8; ++p)
    for (std::uint64_t r = 0; r < 8; ++r)
      first_draws.push_back(Rng::stream(kSeed, p).stream(r).next_u64());
  std::sort(first_draws.begin(), first_draws.end());
  EXPECT_EQ(std::adjacent_find(first_draws.begin(), first_draws.end()),
            first_draws.end())
      << "two fleet streams share a first draw";
}

TEST(Rng, StreamDiffersFromFork) {
  // stream() must not alias fork(): the fleet reserves stream-space for
  // shards while modules keep deriving consumer substreams with fork().
  Rng base(5);
  EXPECT_NE(base.fork(3).next_u64(), base.stream(3).next_u64());
}

TEST(Rng, UniformRespectsBounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.uniform(2.0, 5.0);
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 5.0);
  }
}

TEST(Rng, UniformIntInclusiveBoundsAndCoverage) {
  Rng r(4);
  std::array<int, 4> seen{};
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.uniform_int(0, 3);
    ASSERT_GE(v, 0);
    ASSERT_LE(v, 3);
    ++seen[static_cast<std::size_t>(v)];
  }
  for (int c : seen) EXPECT_GT(c, 100);
}

TEST(Rng, ExponentialMeanIsClose) {
  Rng r(5);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.15);
}

TEST(Rng, NormalMomentsAreClose) {
  Rng r(6);
  double sum = 0, sq = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal(10.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  EXPECT_NEAR(mean, 10.0, 0.1);
  EXPECT_NEAR(sq / n - mean * mean, 4.0, 0.25);
}

TEST(Rng, NormalZeroSigmaIsDegenerate) {
  Rng r(11);
  EXPECT_DOUBLE_EQ(r.normal(3.5, 0.0), 3.5);
}

TEST(Rng, PoissonMeanIsClose) {
  Rng r(8);
  double sum = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += static_cast<double>(r.poisson(3.0));
  EXPECT_NEAR(sum / n, 3.0, 0.1);
  EXPECT_EQ(r.poisson(0.0), 0u);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(9);
  int heads = 0;
  for (int i = 0; i < 20000; ++i)
    if (r.bernoulli(0.3)) ++heads;
  EXPECT_NEAR(heads / 20000.0, 0.3, 0.02);
}

TEST(Rng, PickCoversAllElements) {
  Rng r(10);
  const std::vector<int> items{1, 2, 3};
  std::array<int, 4> seen{};
  for (int i = 0; i < 300; ++i)
    ++seen[static_cast<std::size_t>(r.pick(std::span<const int>(items)))];
  EXPECT_GT(seen[1], 0);
  EXPECT_GT(seen[2], 0);
  EXPECT_GT(seen[3], 0);
}

TEST(Rng, ContractsRejectInvalidArguments) {
  Rng r(1);
  EXPECT_THROW((void)r.uniform(5.0, 2.0), ContractViolation);
  EXPECT_THROW((void)r.uniform_int(3, 1), ContractViolation);
  EXPECT_THROW((void)r.bernoulli(1.5), ContractViolation);
  EXPECT_THROW((void)r.exponential(0.0), ContractViolation);
  EXPECT_THROW((void)r.normal(0.0, -1.0), ContractViolation);
  const std::vector<int> empty;
  EXPECT_THROW((void)r.pick(std::span<const int>(empty)), ContractViolation);
}

}  // namespace
}  // namespace ntco
