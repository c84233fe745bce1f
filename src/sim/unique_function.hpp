// Move-only type-erased callable (a minimal std::move_only_function for
// C++20). Scheduler callbacks capture move-only payloads (packets as
// unique_ptr), which std::function cannot hold; this keeps packet ownership
// RAII-clean all the way through the event queue.
//
// Small-buffer optimised: callables up to kInlineSize bytes that are
// nothrow-move-constructible live inline in the wrapper, so the simulator's
// hot-path captures — a `this` pointer for link/timer events, `this` plus a
// pooled PacketPtr for packet delivery — never touch the allocator. Larger
// or throwing-move callables fall back to the heap exactly like the old
// unique_ptr<Base> implementation. Type erasure is a hand-rolled ops table
// (call / relocate / destroy) instead of a virtual base.
//
// emplace() builds a callable directly in an existing wrapper. The
// scheduler uses it to construct each event's callable in the slot it will
// run from, so a scheduled lambda is never relocated at all: it is built in
// place, called in place and destroyed in place.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace conga::sim {

class UniqueFunction {
 public:
  /// Inline storage size: covers every callback the simulator schedules on
  /// its hot paths (the largest is a lambda capturing `this` plus a pooled
  /// packet plus a port index). Grow with care: the scheduler stores one
  /// UniqueFunction per pending event.
  static constexpr std::size_t kInlineSize = 48;

  UniqueFunction() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, UniqueFunction>>>
  UniqueFunction(F&& f) {  // NOLINT(google-explicit-constructor): callable wrapper
    construct(std::forward<F>(f));
  }

  UniqueFunction(UniqueFunction&& other) noexcept {
    if (other.ops_ != nullptr) {
      ops_ = other.ops_;
      ops_->relocate(buf_, other.buf_);
      other.ops_ = nullptr;
    }
  }

  UniqueFunction& operator=(UniqueFunction&& other) noexcept {
    if (this != &other) {
      reset();
      if (other.ops_ != nullptr) {
        ops_ = other.ops_;
        ops_->relocate(buf_, other.buf_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  UniqueFunction(const UniqueFunction&) = delete;
  UniqueFunction& operator=(const UniqueFunction&) = delete;

  ~UniqueFunction() { reset(); }

  /// Replaces the held callable (if any) with one built in place from `f`.
  /// A UniqueFunction rvalue is taken over by one relocation.
  template <typename F>
  void emplace(F&& f) {
    if constexpr (std::is_same_v<std::remove_cvref_t<F>, UniqueFunction>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "emplace takes a UniqueFunction only as an rvalue");
      *this = std::move(f);
    } else {
      reset();
      construct(std::forward<F>(f));
    }
  }

  /// Destroys the held callable, if any.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  void operator()() { ops_->call(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*call)(void* storage);
    /// Move-constructs the payload into `dst` from `src` and destroys `src`.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* storage) noexcept;
  };

  template <typename F>
  static constexpr bool kInline =
      sizeof(F) <= kInlineSize && alignof(F) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<F>;

  template <typename F>
  struct InlineHandler {
    static F* get(void* s) { return std::launder(reinterpret_cast<F*>(s)); }
    static void call(void* s) { (*get(s))(); }
    static void relocate(void* dst, void* src) noexcept {
      F* from = get(src);
      ::new (dst) F(std::move(*from));
      from->~F();
    }
    static void destroy(void* s) noexcept { get(s)->~F(); }
    static constexpr Ops ops{&call, &relocate, &destroy};
  };

  template <typename F>
  struct HeapHandler {
    static F* get(void* s) {
      return *std::launder(reinterpret_cast<F**>(s));
    }
    static void call(void* s) { (*get(s))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) F*(get(src));  // steal the pointer; F itself stays put
    }
    static void destroy(void* s) noexcept { delete get(s); }
    static constexpr Ops ops{&call, &relocate, &destroy};
  };

  /// Builds `f` into the (empty) buffer. ops_ is set last, so a throwing
  /// constructor leaves the wrapper empty.
  template <typename F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (kInline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &InlineHandler<D>::ops;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapHandler<D>::ops;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte buf_[kInlineSize];
};

}  // namespace conga::sim
