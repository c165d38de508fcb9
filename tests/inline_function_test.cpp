#include "ntco/common/inline_function.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>

#include "ntco/common/error.hpp"

namespace ntco {
namespace {

using Fn = InlineFunction<int(int), 48>;

TEST(InlineFunction, DefaultIsEmptyAndComparesToNullptr) {
  Fn f;
  EXPECT_FALSE(static_cast<bool>(f));
  EXPECT_TRUE(f == nullptr);
  EXPECT_FALSE(f != nullptr);
  Fn g = nullptr;
  EXPECT_TRUE(g == nullptr);
}

TEST(InlineFunction, InvokesStoredCallable) {
  Fn f = [](int x) { return x + 1; };
  EXPECT_TRUE(f != nullptr);
  EXPECT_EQ(f(41), 42);
}

TEST(InlineFunction, SmallCaptureIsStoredInline) {
  int base = 40;
  auto add = [&base](int x) { return base + x; };
  static_assert(Fn::stores_inline<decltype(add)>());
  Fn f = add;
  EXPECT_EQ(f(2), 42);
}

// The next three tests keep the names they had when a callable that did
// not fit fell back to the heap. There is no heap fallback any more: such
// a callable does not convert, so the wrapper never allocates.

TEST(InlineFunction, OversizedCaptureFallsBackToHeap) {
  struct Big {
    unsigned char bytes[64];
    int operator()(int x) const { return bytes[0] + x; }
  };
  struct alignas(2 * alignof(void*)) OverAligned {
    int operator()(int x) const { return x; }
  };
  static_assert(!std::is_constructible_v<Fn, Big>);
  static_assert(!std::is_constructible_v<Fn, OverAligned>);
  // The boundary: a callable of exactly the capacity still fits.
  struct Full {
    std::uint64_t words[6];
    int operator()(int x) const { return static_cast<int>(words[5]) + x; }
  };
  static_assert(sizeof(Full) == Fn::capacity());
  Fn f = Full{{0, 0, 0, 0, 0, 40}};
  EXPECT_EQ(f(2), 42);
}

TEST(InlineFunction, HeapStoredCapturesAreDestroyedOnce) {
  struct Big {
    std::shared_ptr<int> token;
    unsigned char pad[64];
    int operator()() const { return *token; }
  };
  static_assert(!std::is_constructible_v<InlineFunction<int(), 48>, Big>);
  // A capture that fits moves with the wrapper and is destroyed once.
  auto token = std::make_shared<int>(5);
  {
    InlineFunction<int(), 48> f = [token] { return *token; };
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(f(), 5);
    InlineFunction<int(), 48> g = std::move(f);
    EXPECT_TRUE(f == nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(token.use_count(), 2);
    EXPECT_EQ(g(), 5);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST(InlineFunction, ThrowingMoveTypesGoToHeapSoWrapperMovesStayNoexcept) {
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(const ThrowingMove&) = default;
    ThrowingMove(ThrowingMove&&) noexcept(false) {}
    int operator()(int x) const { return x; }
  };
  static_assert(!Fn::stores_inline<ThrowingMove>());
  static_assert(!std::is_constructible_v<Fn, ThrowingMove>);
  static_assert(std::is_nothrow_move_constructible_v<Fn>);
  static_assert(std::is_nothrow_move_assignable_v<Fn>);
}

TEST(InlineFunction, MoveTransfersOwnershipAndEmptiesSource) {
  Fn f = [](int x) { return x * 2; };
  Fn g = std::move(f);
  EXPECT_TRUE(f == nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(g(21), 42);
  Fn h;
  h = std::move(g);
  EXPECT_TRUE(g == nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(h(21), 42);
}

TEST(InlineFunction, MoveOnlyCapturesAreAccepted) {
  auto p = std::make_unique<int>(40);
  InlineFunction<int(), 48> f = [p = std::move(p)] { return *p + 2; };
  EXPECT_EQ(f(), 42);
  InlineFunction<int(), 48> g = std::move(f);
  EXPECT_EQ(g(), 42);
}

TEST(InlineFunction, ResetDestroysCapturesImmediately) {
  auto token = std::make_shared<int>(1);
  InlineFunction<int(), 48> f = [token] { return *token; };
  EXPECT_EQ(token.use_count(), 2);
  f.reset();
  EXPECT_EQ(token.use_count(), 1);
  EXPECT_TRUE(f == nullptr);
}

TEST(InlineFunction, NullptrAssignmentClears) {
  Fn f = [](int x) { return x; };
  f = nullptr;
  EXPECT_TRUE(f == nullptr);
}

TEST(InlineFunction, InvokingEmptyViolatesContract) {
  Fn f;
  EXPECT_THROW((void)f(1), ContractViolation);
}

}  // namespace
}  // namespace ntco
