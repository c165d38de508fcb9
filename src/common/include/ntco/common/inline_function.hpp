#pragma once

#include <cstddef>
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
/// so an engaged check is a null test and a moved-from object is empty.

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

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}

  /// Wraps any callable invocable as R(Args...) that fits the inline
  /// buffer (size, alignment, nothrow-move); anything else does not
  /// compile. Never allocates.
  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<
                !std::is_same_v<D, InlineFunction> &&
                std::is_invocable_r_v<R, D&, Args...> && stores_inline<D>()>>
  InlineFunction(F&& f) {  // NOLINT(bugprone-forwarding-reference-overload)
    ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
    vt_ = &kVTable<D>;
  }

  InlineFunction(InlineFunction&& o) noexcept : vt_(o.vt_) {
    if (vt_ != nullptr) {
      vt_->relocate(o.buf_, buf_);
      o.vt_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      reset();
      vt_ = o.vt_;
      if (vt_ != nullptr) {
        vt_->relocate(o.buf_, buf_);
        o.vt_ = nullptr;
      }
    }
    return *this;
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
      vt_->destroy(buf_);
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
    /// noexcept because stored callables have a non-throwing move.
    void (*relocate)(unsigned char* src, unsigned char* dst) noexcept;
    void (*destroy)(unsigned char*) noexcept;
  };

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
  static constexpr VTable kVTable{&Ops<D>::invoke, &Ops<D>::relocate,
                                  &Ops<D>::destroy};

  alignas(void*) unsigned char buf_[Capacity];
  const VTable* vt_ = nullptr;
};

}  // namespace ntco
