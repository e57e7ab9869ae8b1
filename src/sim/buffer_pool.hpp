// Pooled, reusable std::vector backing stores for per-request scratch data.
//
// Timing-mode runs allocate short-lived vectors on every request — payload
// staging buffers in core::IBridgeCache (verify mode), completion-record and
// mapped-range vectors in fsim::LocalFileSystem (every read/write) — and the
// allocator round-trip shows up right next to the event loop on the profile
// (docs/PERF.md).  VectorPool recycles those vectors: a Lease hands out a
// cleared vector whose *capacity* survives from earlier requests, and
// returns it to a bounded free list when the lease dies.  Steady state does
// zero heap allocation.
//
// Not thread-safe — one pool per Simulator-owning component, which matches
// the exp::Runner model of one fully-independent simulation per job.
// A Lease must not outlive its pool.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace ibridge::sim {

template <typename T>
class VectorPool {
 public:
  VectorPool() = default;
  VectorPool(const VectorPool&) = delete;
  VectorPool& operator=(const VectorPool&) = delete;

  /// RAII handle on a pooled vector.  Move-only; dereference to use the
  /// vector.  Destruction (or move-assignment over) returns the buffer to
  /// the pool with its capacity intact.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept
        : pool_(std::exchange(other.pool_, nullptr)),
          buf_(std::move(other.buf_)) {}
    Lease& operator=(Lease&& other) noexcept {
      if (this != &other) {
        release();
        pool_ = std::exchange(other.pool_, nullptr);
        buf_ = std::move(other.buf_);
      }
      return *this;
    }
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    std::vector<T>& operator*() noexcept { return buf_; }
    const std::vector<T>& operator*() const noexcept { return buf_; }
    std::vector<T>* operator->() noexcept { return &buf_; }
    const std::vector<T>* operator->() const noexcept { return &buf_; }

   private:
    friend class VectorPool;
    Lease(VectorPool* pool, std::vector<T> buf)
        : pool_(pool), buf_(std::move(buf)) {}

    void release() noexcept {
      if (pool_ != nullptr) {
        pool_->give_back(std::move(buf_));
        pool_ = nullptr;
      }
    }

    VectorPool* pool_ = nullptr;
    std::vector<T> buf_;
  };

  /// An empty vector, reusing a previously returned backing store when one
  /// is idle.
  Lease acquire() {
    if (free_.empty()) {
      ++fresh_;
      return Lease(this, std::vector<T>{});
    }
    ++reused_;
    std::vector<T> buf = std::move(free_.back());
    free_.pop_back();
    return Lease(this, std::move(buf));
  }

  /// A vector of exactly `n` value-initialized elements.
  Lease acquire(std::size_t n) {
    Lease lease = acquire();
    lease->assign(n, T{});
    return lease;
  }

  /// Buffers currently idle in the free list.
  std::size_t idle() const { return free_.size(); }
  /// Leases served with a brand-new (empty-capacity) vector.
  std::uint64_t fresh_acquires() const { return fresh_; }
  /// Leases served from the free list.
  std::uint64_t reused_acquires() const { return reused_; }

 private:
  void give_back(std::vector<T> buf) {
    if (free_.size() < kMaxIdle && buf.capacity() > 0) {
      buf.clear();
      free_.push_back(std::move(buf));
    }
  }

  /// Cap on idle buffers so a burst (e.g. a 512-proc sweep cell) cannot pin
  /// its high-water memory for the rest of the process.
  static constexpr std::size_t kMaxIdle = 64;

  std::vector<std::vector<T>> free_;
  std::uint64_t fresh_ = 0;
  std::uint64_t reused_ = 0;
};

/// The common case: pooled payload byte buffers.
using BufferPool = VectorPool<std::byte>;

}  // namespace ibridge::sim
