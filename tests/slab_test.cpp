#include "ntco/common/slab.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "ntco/common/error.hpp"

namespace ntco {
namespace {

TEST(Slab, StaleIdFailsItsCheck) {
  Slab<int> slab;
  const SlabId a = slab.acquire();
  slab[a] = 7;
  slab.release(a);
  EXPECT_THROW((void)slab[a], ContractViolation);
  EXPECT_THROW(slab.release(a), ContractViolation);

  // The next acquire reuses the slot under a new generation: the old id
  // still fails, the new one names the record (with its old contents).
  const SlabId b = slab.acquire();
  EXPECT_NE(b, a);
  EXPECT_EQ(b & 0xFFFFFFFFu, a & 0xFFFFFFFFu);
  EXPECT_EQ(slab[b], 7);
  EXPECT_THROW((void)slab[a], ContractViolation);
  EXPECT_THROW((void)slab[kNoSlabId], ContractViolation);
}

TEST(Slab, FindRejectsReleasedNeverAcquiredAndForgedIds) {
  Slab<int> slab;
  const SlabId a = slab.acquire();
  const SlabId b = slab.acquire();
  EXPECT_NE(a, 0u);  // callers may use 0 for "none"
  ASSERT_NE(slab.find(a), nullptr);
  EXPECT_EQ(slab.find(a), &slab[a]);
  slab.release(a);
  EXPECT_EQ(slab.find(a), nullptr);  // released
  EXPECT_EQ(slab.find(b + 1), nullptr);  // a slot never acquired
  EXPECT_EQ(slab.find(kNoSlabId), nullptr);
  // Forged: a's free slot under the generation it now has, and b's slot
  // under the free generation it had before acquire(), under the one
  // release() will give it, and under a later live one.
  EXPECT_EQ(slab.find(a + (SlabId{1} << 32)), nullptr);
  EXPECT_EQ(slab.find(b - (SlabId{1} << 32)), nullptr);
  EXPECT_EQ(slab.find(b + (SlabId{1} << 32)), nullptr);
  EXPECT_EQ(slab.find(b + (SlabId{2} << 32)), nullptr);
  EXPECT_EQ(slab.find(0), nullptr);
  // The reused slot answers only to its new id.
  const SlabId c = slab.acquire();
  EXPECT_EQ(c & 0xFFFFFFFFu, a & 0xFFFFFFFFu);
  EXPECT_NE(slab.find(c), nullptr);
  EXPECT_EQ(slab.find(a), nullptr);
  const Slab<int>& view = slab;
  EXPECT_EQ(view.find(c), &slab[c]);
  EXPECT_EQ(view.find(a), nullptr);
}

TEST(Slab, GrowthNeverMovesLiveRecords) {
  Slab<std::vector<int>> slab;
  const SlabId first = slab.acquire();
  slab[first] = {1, 2, 3};
  const std::vector<int>* where = &slab[first];
  std::vector<SlabId> ids;
  for (int i = 0; i < 10'000; ++i) {
    ids.push_back(slab.acquire());
    slab[ids.back()].push_back(i);
  }
  EXPECT_EQ(&slab[first], where);
  EXPECT_EQ(slab[first], (std::vector<int>{1, 2, 3}));
  // Released slots come back before the slab grows again.
  for (const SlabId id : ids) slab.release(id);
  const std::vector<int>* last = &slab[slab.acquire()];
  EXPECT_EQ(*last, std::vector<int>{9'999});
}

}  // namespace
}  // namespace ntco
