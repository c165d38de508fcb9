#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

#include "ntco/common/contracts.hpp"

/// \file inline_function.hpp
/// Small-buffer move-only callable: `std::function` without the copy
/// requirement and with a caller-chosen inline capacity.
///
/// The simulation kernel schedules millions of handlers per experiment;
/// `std::function`'s small buffer (16 bytes on libstdc++) is too small for
/// the typical capture set (`this` + a shared_ptr + an id), so almost every
/// schedule paid a heap allocation. `InlineFunction<void(), 48>` stores any
/// callable of at most `Capacity` bytes (and pointer alignment, and a
/// non-throwing move) directly in the object and never allocates. A
/// larger, over-aligned, or throwing-move callable does not convert: the
/// constructor is constrained on stores_inline(), so "this capture set
/// fits" is checked by the compiler. Because the wrapper is move-only it
/// also accepts move-only captures (`std::unique_ptr`, moved-in
/// `std::function`s), which `std::function` rejects outright.
///
/// Dispatch is one vtable pointer per object (invoke / relocate / destroy),
/// so an engaged check is a null test and a moved-from object is empty. A
/// callable that is trivially copyable and trivially destructible (a
/// lambda capturing `this` and ids) has neither relocate nor destroy: a
/// move copies its payload bytes and a reset just clears the pointer, so
/// only invoking it calls through the vtable. emplace() builds a callable
/// in place, with no wrapper to move it out of.

namespace ntco {

template <class Signature, std::size_t Capacity = 48>
class InlineFunction;  // primary template: only R(Args...) is specialised

template <class R, class... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  /// Whether a callable of type D fits, i.e. whether the wrapper accepts
  /// it. Inline storage is pointer-aligned (keeps sizeof tight for arena
  /// embedding), so over-aligned callables do not fit.
  template <class D>
  [[nodiscard]] static constexpr bool stores_inline() {
    return sizeof(D) <= Capacity && alignof(D) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<D>;
  }

  [[nodiscard]] static constexpr std::size_t capacity() { return Capacity; }

  /// Whether the wrapper accepts an `F`: a callable invocable as
  /// R(Args...) that fits the inline buffer, other than the wrapper itself.
  template <class F, class D = std::decay_t<F>>
  [[nodiscard]] static constexpr bool wraps() {
    return !std::is_same_v<D, InlineFunction> &&
           std::is_invocable_r_v<R, D&, Args...> && stores_inline<D>();
  }

  /// Whether a stored D moves by copying its bytes and needs no destroy.
  template <class D>
  [[nodiscard]] static constexpr bool trivially_relocated() {
    return std::is_trivially_copyable_v<D> &&
           std::is_trivially_destructible_v<D>;
  }

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}

  /// Wraps any callable invocable as R(Args...) that fits the inline
  /// buffer (size, alignment, nothrow-move); anything else does not
  /// compile. Never allocates.
  template <class F, class = std::enable_if_t<wraps<F>()>>
  InlineFunction(F&& f) {  // NOLINT(bugprone-forwarding-reference-overload)
    construct(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& o) noexcept { take(o); }

  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }

  /// Replaces the stored callable with `f`'s, constructed in place: the
  /// same callables the converting constructor accepts, without the
  /// temporary wrapper a converting assignment would move out of.
  template <class F, class = std::enable_if_t<wraps<F>()>>
  void emplace(F&& f) noexcept(
      std::is_nothrow_constructible_v<std::decay_t<F>, F>) {
    reset();
    construct(std::forward<F>(f));
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  InlineFunction& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  ~InlineFunction() { reset(); }

  /// Destroys the stored callable (and its captures) immediately; the
  /// object becomes empty. Used by the kernel to release a cancelled or
  /// fired handler's resources when it frees the handler's slot.
  void reset() noexcept {
    if (vt_ != nullptr) {
      if (vt_->destroy != nullptr) vt_->destroy(buf_);
      vt_ = nullptr;
    }
  }

  [[nodiscard]] explicit operator bool() const noexcept {
    return vt_ != nullptr;
  }
  friend bool operator==(const InlineFunction& f, std::nullptr_t) noexcept {
    return f.vt_ == nullptr;
  }

  R operator()(Args... args) {
    NTCO_EXPECTS(vt_ != nullptr);
    return vt_->invoke(buf_, std::forward<Args>(args)...);
  }

 private:
  struct VTable {
    R (*invoke)(unsigned char*, Args&&...);
    /// Move-constructs dst's payload from src's and destroys src's;
    /// noexcept because stored callables have a non-throwing move. Null
    /// when the payload's bytes are copied instead.
    void (*relocate)(unsigned char* src, unsigned char* dst) noexcept;
    /// Null when the payload needs no destruction.
    void (*destroy)(unsigned char*) noexcept;
  };

  /// Pre: empty.
  template <class F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    vt_ = &kVTable<D>;
  }

  /// Moves `o`'s callable into this one and empties `o`. Pre: empty.
  void take(InlineFunction& o) noexcept {
    vt_ = o.vt_;
    if (vt_ == nullptr) return;
    if (vt_->relocate == nullptr)
      std::memcpy(buf_, o.buf_, Capacity);
    else
      vt_->relocate(o.buf_, buf_);
    o.vt_ = nullptr;
  }

  template <class D>
  struct Ops {
    static D* get(unsigned char* b) {
      return std::launder(reinterpret_cast<D*>(b));
    }
    static R invoke(unsigned char* b, Args&&... args) {
      return (*get(b))(std::forward<Args>(args)...);
    }
    static void relocate(unsigned char* src, unsigned char* dst) noexcept {
      ::new (static_cast<void*>(dst)) D(std::move(*get(src)));
      get(src)->~D();
    }
    static void destroy(unsigned char* b) noexcept { get(b)->~D(); }
  };

  template <class D>
  static constexpr VTable kVTable{
      &Ops<D>::invoke,
      trivially_relocated<D>() ? nullptr : &Ops<D>::relocate,
      trivially_relocated<D>() ? nullptr : &Ops<D>::destroy};

  /// Zeroed on construction, so a byte-copying move never reads bytes
  /// that were never written.
  alignas(void*) unsigned char buf_[Capacity]{};
  const VTable* vt_ = nullptr;
};

}  // namespace ntco
