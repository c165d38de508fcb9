#include "ntco/common/inline_function.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

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

TEST(InlineFunction, TrivialAndOwningCapturesSurviveEveryMove) {
  // What a kernel handler captures, a pointer and an id, moves by a copy
  // of its bytes and has nothing to destroy; a shared_ptr capture moves
  // and dies through its own constructor and destructor.
  struct Ids {
    const int* base;
    std::uint32_t id;
    int operator()(int x) const { return *base + static_cast<int>(id) + x; }
  };
  static_assert(Fn::trivially_relocated<Ids>());
  auto token = std::make_shared<int>(40);
  const auto owning = [&token] {
    return [token](int x) { return *token + x; };
  };
  static_assert(!Fn::trivially_relocated<decltype(owning())>());

  // Move-construct, move-assign, in-place construction over another
  // callable, and reset: each callable reads the same throughout.
  const int base = 30;
  {
    Fn a = Ids{&base, 10};
    Fn b = std::move(a);
    EXPECT_TRUE(a == nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b(2), 42);
    Fn c;
    c = std::move(b);
    EXPECT_TRUE(b == nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c(2), 42);
    c.emplace(Ids{&base, 2});
    EXPECT_EQ(c(10), 42);
    Fn d = owning();
    d.emplace(Ids{&base, 11});  // destroys the shared_ptr capture
    EXPECT_EQ(token.use_count(), 1);
    EXPECT_EQ(d(1), 42);
    c = std::move(d);
    EXPECT_EQ(c(1), 42);
    c.reset();
    EXPECT_TRUE(c == nullptr);
  }

  // The shared_ptr's count, read after every step, returns to 1 exactly
  // once: when its last holder lets go.
  std::vector<long> counts;
  const auto seen = [&] { counts.push_back(token.use_count()); };
  {
    Fn a = owning();
    seen();
    EXPECT_EQ(a(2), 42);
    Fn b = std::move(a);
    seen();
    EXPECT_TRUE(a == nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b(2), 42);
    Fn c = Ids{&base, 0};
    c = std::move(b);
    seen();
    EXPECT_TRUE(b == nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c(2), 42);
    Fn d = [](int x) { return -x; };
    d.emplace(owning());
    seen();
    EXPECT_EQ(d(2), 42);
    c = std::move(d);  // c's capture dies, d's moves in
    seen();
    EXPECT_TRUE(d == nullptr);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c(2), 42);
    c.reset();
    seen();
    EXPECT_TRUE(c == nullptr);
  }
  seen();
  EXPECT_EQ(counts, (std::vector<long>{2, 2, 2, 3, 2, 1, 1}));
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
