// InlineEvent: the simulator's move-only, type-erased `void()` callable.
//
// std::function<void()> (libstdc++) keeps only 16 bytes of inline storage,
// so the 24-48 byte closures the coroutine layer schedules — `[this, h]`,
// `[this, slot, when]`, sampler lambdas — heap-allocate on every event.  At
// millions of events per run that allocation *is* the hot path (see
// bench/bench_simcore.cpp and docs/PERF.md).
//
// InlineEvent widens the small-buffer to 48 bytes: any callable with
//   sizeof(F)  <= 48
//   alignof(F) <= alignof(std::max_align_t)
//   nothrow-move-constructible
// is stored in place; anything larger transparently falls back to a single
// heap cell, so callers never need to care.  The trade against std::function
// is deliberate: events are move-only (no copy, so captures may hold leases
// and promises), invoked at most once per schedule, and never need target()
// introspection — dropping those features is what makes the fat buffer free.
//
// Dispatch is one indirect call through a per-type Ops table (invoke /
// relocate / destroy), the same shape std::function uses.  Trivially
// copyable closures (the overwhelmingly common case: captures of pointers,
// ints, SimTime) additionally get a null relocate/destroy in their table,
// which the move path turns into a fixed-size memcpy with no indirect call —
// heap sifts in the event queue move events at memcpy speed.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace ibridge::sim {

class InlineEvent {
 public:
  /// Closure bytes stored without heap allocation.  48 covers every closure
  /// the sim/core/pvfs layers schedule today (the largest is the metrics
  /// sampler's 32-byte capture) with headroom for one more pointer.
  static constexpr std::size_t kInlineBytes = 48;

  /// True when a callable of type F is stored in the inline buffer rather
  /// than behind a heap cell.  Exposed so tests can pin down which regime a
  /// given capture exercises.
  template <typename F>
  static constexpr bool stored_inline() {
    using Fn = std::decay_t<F>;
    return sizeof(Fn) <= kInlineBytes &&
           alignof(Fn) <= alignof(std::max_align_t) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  InlineEvent() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineEvent> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineEvent(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors
                         // std::function so call sites stay `schedule(..., [..]{})`.
    using Fn = std::decay_t<F>;
    if constexpr (stored_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(fn));
      ops_ = &ops_inline<Fn>();
    } else {
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(fn)));
      ops_ = &ops_heap<Fn>();
    }
  }

  InlineEvent(InlineEvent&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      relocate_from(other);
      other.ops_ = nullptr;
    }
  }

  InlineEvent& operator=(InlineEvent&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        relocate_from(other);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineEvent(const InlineEvent&) = delete;
  InlineEvent& operator=(const InlineEvent&) = delete;

  ~InlineEvent() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() {
    assert(ops_ != nullptr && "invoking empty/moved-from InlineEvent");
    ops_->invoke(buf_);
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-construct into dst from src, then destroy src's residue.
    /// Always noexcept: inline storage requires nothrow-move, heap storage
    /// relocates only the pointer.  nullptr means "memcpy the whole buffer"
    /// — valid for trivially copyable inline closures and for the heap cell
    /// (its buffer holds only a pointer), and the move path exploits it to
    /// skip the indirect call.
    void (*relocate)(void* dst, void* src);
    /// nullptr means trivially destructible — reset() skips the call.
    void (*destroy)(void*);
  };

  template <typename Fn>
  static Fn* as(void* p) {
    return std::launder(reinterpret_cast<Fn*>(p));
  }

  template <typename Fn>
  static const Ops& ops_inline() {
    if constexpr (std::is_trivially_copyable_v<Fn>) {
      // Trivially copyable implies trivially destructible, so both the
      // relocate and destroy slots collapse to the memcpy/no-op fast path.
      static constexpr Ops kOps{
          [](void* p) { (*as<Fn>(p))(); },
          nullptr,
          nullptr,
      };
      return kOps;
    } else {
      static constexpr Ops kOps{
          [](void* p) { (*as<Fn>(p))(); },
          [](void* dst, void* src) {
            Fn* s = as<Fn>(src);
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
          },
          [](void* p) { as<Fn>(p)->~Fn(); },
      };
      return kOps;
    }
  }

  template <typename Fn>
  static const Ops& ops_heap() {
    static constexpr Ops kOps{
        [](void* p) { (**as<Fn*>(p))(); },
        nullptr,  // the buffer holds one pointer; memcpy relocates it
        [](void* p) { delete *as<Fn*>(p); },
    };
    return kOps;
  }

  /// Precondition: ops_ == other.ops_ != nullptr and buf_ holds no object.
  void relocate_from(InlineEvent& other) noexcept {
    if (ops_->relocate != nullptr) {
      ops_->relocate(buf_, other.buf_);
    } else {
      std::memcpy(buf_, other.buf_, kInlineBytes);
    }
  }

  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  // Zero-initialized so the memcpy relocation fast path never reads
  // uninitialized tail bytes (closures smaller than the buffer leave a gap;
  // GCC's -Wuninitialized rightly complains otherwise).
  alignas(std::max_align_t) std::byte buf_[kInlineBytes] = {};
  const Ops* ops_ = nullptr;
};

}  // namespace ibridge::sim
