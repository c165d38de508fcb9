#include <gtest/gtest.h>

#include <cmath>

#include "ntco/common/error.hpp"
#include "ntco/stats/accumulator.hpp"
#include "ntco/stats/percentile.hpp"
#include "ntco/stats/table.hpp"

namespace ntco::stats {
namespace {

TEST(Accumulator, EmptyStateAndContracts) {
  Accumulator a;
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(a.count(), 0u);
  EXPECT_THROW((void)a.mean(), ContractViolation);
  EXPECT_THROW((void)a.min(), ContractViolation);
}

TEST(Accumulator, MomentsMatchDirectComputation) {
  Accumulator a;
  const double xs[] = {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0};
  for (double x : xs) a.add(x);
  EXPECT_EQ(a.count(), 8u);
  EXPECT_DOUBLE_EQ(a.mean(), 5.0);
  EXPECT_DOUBLE_EQ(a.sum(), 40.0);
  EXPECT_NEAR(a.variance(), 32.0 / 7.0, 1e-12);  // sample variance
  EXPECT_DOUBLE_EQ(a.min(), 2.0);
  EXPECT_DOUBLE_EQ(a.max(), 9.0);
}

TEST(Accumulator, SingleObservationHasZeroVariance) {
  Accumulator a;
  a.add(3.0);
  EXPECT_DOUBLE_EQ(a.variance(), 0.0);
}

TEST(Accumulator, MergeEqualsPooled) {
  Accumulator lhs, rhs, pooled;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i) * 10.0;
    (i % 2 ? lhs : rhs).add(x);
    pooled.add(x);
  }
  lhs.merge(rhs);
  EXPECT_EQ(lhs.count(), pooled.count());
  EXPECT_NEAR(lhs.mean(), pooled.mean(), 1e-12);
  EXPECT_NEAR(lhs.variance(), pooled.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(lhs.min(), pooled.min());
  EXPECT_DOUBLE_EQ(lhs.max(), pooled.max());
}

TEST(Accumulator, MergeWithEmptyIsIdentity) {
  Accumulator a, empty;
  a.add(1.0);
  a.add(2.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 1.5);
}

TEST(Accumulator, RejectsNonFinite) {
  Accumulator a;
  EXPECT_THROW(a.add(std::nan("")), ContractViolation);
  EXPECT_THROW(a.add(INFINITY), ContractViolation);
}

TEST(PercentileSample, ExactQuantilesOnKnownData) {
  PercentileSample p;
  for (int i = 1; i <= 100; ++i) p.add(i);
  EXPECT_DOUBLE_EQ(p.min(), 1.0);
  EXPECT_DOUBLE_EQ(p.max(), 100.0);
  EXPECT_DOUBLE_EQ(p.median(), 50.5);
  EXPECT_NEAR(p.p95(), 95.05, 1e-9);
  EXPECT_DOUBLE_EQ(p.mean(), 50.5);
}

TEST(PercentileSample, InterpolatesBetweenPoints) {
  PercentileSample p;
  p.add(10.0);
  p.add(20.0);
  EXPECT_DOUBLE_EQ(p.quantile(0.25), 12.5);
}

TEST(PercentileSample, SingleElement) {
  PercentileSample p;
  p.add(7.0);
  EXPECT_DOUBLE_EQ(p.median(), 7.0);
  EXPECT_DOUBLE_EQ(p.p99(), 7.0);
}

TEST(PercentileSample, AddAfterQueryResorts) {
  PercentileSample p;
  p.add(5.0);
  EXPECT_DOUBLE_EQ(p.max(), 5.0);
  p.add(9.0);
  p.add(1.0);
  EXPECT_DOUBLE_EQ(p.max(), 9.0);
  EXPECT_DOUBLE_EQ(p.min(), 1.0);
}

TEST(PercentileSample, MergeEqualsPooled) {
  PercentileSample lhs, rhs, pooled;
  for (int i = 0; i < 101; ++i) {
    const double x = std::cos(i) * 50.0;
    (i % 3 ? lhs : rhs).add(x);
    pooled.add(x);
  }
  lhs.merge(rhs);
  EXPECT_EQ(lhs.count(), pooled.count());
  EXPECT_DOUBLE_EQ(lhs.median(), pooled.median());
  EXPECT_DOUBLE_EQ(lhs.p95(), pooled.p95());
  EXPECT_DOUBLE_EQ(lhs.min(), pooled.min());
  EXPECT_DOUBLE_EQ(lhs.max(), pooled.max());
}

TEST(PercentileSample, MergeWithEmptyIsIdentity) {
  PercentileSample a, empty;
  a.add(3.0);
  a.add(1.0);
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.median(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.median(), 2.0);
}

TEST(PercentileSample, MergedQuantilesAreOrderIndependent) {
  // Three shards merged in two different groupings must agree exactly:
  // the pooled multiset, not the merge tree, determines every quantile.
  PercentileSample s1, s2, s3;
  for (int i = 0; i < 40; ++i) s1.add(std::sin(i) * 9.0);
  for (int i = 0; i < 25; ++i) s2.add(std::sin(100 + i) * 3.0);
  for (int i = 0; i < 33; ++i) s3.add(std::sin(200 + i) * 27.0);

  PercentileSample left;  // (s1 + s2) + s3
  left.merge(s1);
  left.merge(s2);
  left.merge(s3);
  PercentileSample right;  // s3 + (s2 + s1)
  right.merge(s3);
  right.merge(s2);
  right.merge(s1);
  for (double q : {0.0, 0.1, 0.25, 0.5, 0.9, 0.95, 0.99, 1.0})
    EXPECT_DOUBLE_EQ(left.quantile(q), right.quantile(q)) << "q=" << q;
}

TEST(PercentileSample, SelfMergeDoublesEveryObservation) {
  // merge(*this) used to insert the vector into itself, which is UB the
  // moment growth reallocates out from under the source iterators.
  PercentileSample s;
  for (double x : {3.0, 1.0, 2.0}) s.add(x);
  s.merge(s);
  EXPECT_EQ(s.count(), 6u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 3.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
  // Quantiles are those of the doubled multiset {1,1,2,2,3,3}.
  EXPECT_DOUBLE_EQ(s.quantile(0.2), 1.0);
}

TEST(PercentileSample, SelfMergeAfterSortedQueryStaysCorrect) {
  // The duplicated tail breaks sortedness (1,2 -> 1,2,1,2); a quantile
  // right after a self-merge must re-sort.
  PercentileSample s;
  s.add(2.0);
  s.add(1.0);
  EXPECT_DOUBLE_EQ(s.median(), 1.5);  // forces the sorted state
  s.merge(s);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 2.0);
}

TEST(PercentileSample, ContractsOnEmptyAndBadQ) {
  PercentileSample p;
  EXPECT_THROW((void)p.median(), ContractViolation);
  p.add(1.0);
  EXPECT_THROW((void)p.quantile(1.5), ContractViolation);
  EXPECT_THROW((void)p.quantile(-0.1), ContractViolation);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.set_title("demo");
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.render();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
  EXPECT_NE(s.find("| b     | 22222 |"), std::string::npos);
}

TEST(Table, CsvRendering) {
  Table t({"a", "b"});
  t.add_row({"1", "2"});
  EXPECT_EQ(t.render_csv(), "a,b\n1,2\n");
}

TEST(Table, RowArityIsChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(cell(3.14159, 2), "3.14");
  EXPECT_EQ(cell(2.0, 0), "2");
  EXPECT_EQ(cell_pct(0.256, 1), "25.6%");
}

}  // namespace
}  // namespace ntco::stats
