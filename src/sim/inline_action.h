// Allocation-free callables for the simulation hot path.
//
// InlineFunction<R(Args...)> is a move-only replacement for std::function
// whose small-buffer storage is large enough (kInlineBytes) that every
// hot-path closure in the engine fits inline — scheduling a packet hop or
// delivering a packet through a link never touches the heap. Callables that
// exceed the buffer still work (they fall back to a heap box), so cold-path
// code keeps its ergonomics; hot call sites pin the contract with
// `static_assert(InlineAction::fits_inline<F>)`.
//
// InlineAction (= InlineFunction<void()>) is the event-closure type the
// Simulator schedules; NetLink/ClosFabric use the one-argument form for
// per-packet delivery. The determinism lint (tools/lint/stellar_lint.py,
// rule std-function-hot-path) keeps std::function out of these layers.
//
// Dispatch is split for speed where it matters:
//
//  * invoke_ is a dedicated function pointer, so operator() is one indirect
//    call — no op-code dispatch on the hot fire path.
//  * manage_ handles relocate/destroy and is nullptr for trivially copyable,
//    trivially destructible callables (the common pointer-capture lambdas):
//    moving those is a plain 64-byte copy and destruction is free, so
//    scheduler slot reshuffles never make an indirect call per element.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace stellar {

template <typename Sig>
class InlineFunction;  // only the R(Args...) specialization exists

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  /// Inline storage size. ≥64B by design contract (docs/PERF.md): large
  /// enough for a captured `this` plus a handful of scalar captures.
  static constexpr std::size_t kInlineBytes = 64;

  /// True when F is stored inline (no heap allocation on construction).
  template <typename F>
  static constexpr bool fits_inline =
      sizeof(F) <= kInlineBytes &&
      alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  InlineFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  /// Destroy the held callable, then build `f` directly in the buffer: the
  /// in-place form of `*this = InlineFunction(f)`, with no 64-byte
  /// relocation. If constructing `f` throws, *this is left empty.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& o) noexcept
      : invoke_(o.invoke_), manage_(o.manage_) {
    if (invoke_ != nullptr) {
      if (manage_ == nullptr) {
        std::memcpy(buf_, o.buf_, kInlineBytes);
      } else {
        manage_(Op::kRelocate, buf_, o.buf_);
      }
      o.invoke_ = nullptr;
      o.manage_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& o) noexcept {
    if (this != &o) {
      reset();
      invoke_ = o.invoke_;
      manage_ = o.manage_;
      if (invoke_ != nullptr) {
        if (manage_ == nullptr) {
          std::memcpy(buf_, o.buf_, kInlineBytes);
        } else {
          manage_(Op::kRelocate, buf_, o.buf_);
        }
        o.invoke_ = nullptr;
        o.manage_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  void reset() {
    if (manage_ != nullptr) manage_(Op::kDestroy, buf_, nullptr);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  R operator()(Args... args) {
    return invoke_(buf_, std::forward<Args>(args)...);
  }

 private:
  enum class Op { kRelocate, kDestroy };
  using Invoker = R (*)(void* self, Args&&... args);
  using Manager = void (*)(Op, void* self, void* other);

  /// Trivial callables move by memcpy and need no destructor call.
  template <typename Fn>
  static constexpr bool trivial =
      std::is_trivially_copyable_v<Fn> && std::is_trivially_destructible_v<Fn>;

  /// Builds `f` in the empty buffer; sets the dispatch pointers only once
  /// the construction has succeeded.
  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = &inline_invoke<Fn>;
      if constexpr (!trivial<Fn>) manage_ = &inline_manager<Fn>;
    } else {
      *reinterpret_cast<Fn**>(buf_) = new Fn(std::forward<F>(f));
      invoke_ = &boxed_invoke<Fn>;
      manage_ = &boxed_manager<Fn>;
    }
  }

  template <typename Fn>
  static R inline_invoke(void* self, Args&&... args) {
    return (*std::launder(reinterpret_cast<Fn*>(self)))(
        std::forward<Args>(args)...);
  }

  template <typename Fn>
  static R boxed_invoke(void* self, Args&&... args) {
    return (**reinterpret_cast<Fn**>(self))(std::forward<Args>(args)...);
  }

  template <typename Fn>
  static void inline_manager(Op op, void* self, void* other) {
    switch (op) {
      case Op::kRelocate: {
        auto* src = std::launder(reinterpret_cast<Fn*>(other));
        ::new (self) Fn(std::move(*src));
        src->~Fn();
        break;
      }
      case Op::kDestroy:
        std::launder(reinterpret_cast<Fn*>(self))->~Fn();
        break;
    }
  }

  template <typename Fn>
  static void boxed_manager(Op op, void* self, void* other) {
    auto** box = reinterpret_cast<Fn**>(self);
    switch (op) {
      case Op::kRelocate:
        *box = *reinterpret_cast<Fn**>(other);
        break;
      case Op::kDestroy:
        delete *box;
        break;
    }
  }

  alignas(std::max_align_t) unsigned char buf_[kInlineBytes];
  Invoker invoke_ = nullptr;
  Manager manage_ = nullptr;
};

/// The event-closure type the Simulator schedules.
using InlineAction = InlineFunction<void()>;

}  // namespace stellar
