// Size-bucketed chunk recycling for the allocation-free data plane.
//
// Two users, one mechanism:
//
//   * sim::PoolAllocator<T> — a std-allocator adapter over a ChunkPool, for
//     node-based containers on hot paths (core::SsdLog's live-bytes victim
//     index, storage::CfqScheduler's queues).  Nodes freed by an erase are
//     recycled by the next insert, so steady-state churn never touches the
//     global allocator.  (A device request's completion record needs no
//     pool: its submitter owns it; see sim::Completion.)
//   * frame_pool() — a thread-local ChunkPool behind sim::Task's promise
//     operator new/delete, so the coroutine chain client -> server -> cache
//     -> fsim reuses its frames instead of paying one heap round-trip per
//     hop per request.
//
// A ChunkPool keeps per-size-class free lists of chunks obtained from the
// global allocator.  allocate() pops the matching free list (or falls back
// to ::operator new on a miss); deallocate() pushes the chunk back, up to a
// per-bucket idle cap that bounds the high-water memory a burst can pin.
// Requests larger than kMaxChunk bypass the pool entirely.  Not thread-safe:
// one pool per owning component (the exp::Runner model of one fully
// independent simulation per job), or thread-local for the frame pool.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace ibridge::sim {

class ChunkPool {
 public:
  /// Size-class granularity and the largest pooled request.  Coroutine
  /// frames in this codebase run 80-600 bytes; map/set nodes 48-80.
  static constexpr std::size_t kStep = 64;
  static constexpr std::size_t kMaxChunk = 4096;
  /// Idle BYTES kept per bucket; beyond that, frees go to the allocator.  A
  /// byte cap (rather than a chunk count) keeps the absorbable burst roughly
  /// constant across size classes: a scale-campaign window oscillates
  /// thousands of small coroutine frames between ticks, and a flat 256-chunk
  /// cap made every oscillation beyond it churn the global allocator.
  static constexpr std::size_t kMaxIdleBytesPerBucket = 1u << 20;

  ChunkPool() = default;
  ChunkPool(const ChunkPool&) = delete;
  ChunkPool& operator=(const ChunkPool&) = delete;
  ~ChunkPool() {
    for (std::size_t b = 0; b < kBuckets; ++b) {
      FreeNode* n = free_[b];
      while (n != nullptr) {
        FreeNode* next = n->next;
        if (!primed(n)) ::operator delete(n);
        n = next;
      }
    }
    for (const auto& block : blocks_) {
      ::operator delete(reinterpret_cast<void*>(block.first));
    }
  }

  void* allocate(std::size_t n) {
    const std::size_t b = bucket_of(n);
    if (b >= kBuckets) return ::operator new(n);
    if (free_[b] != nullptr) {
      FreeNode* node = free_[b];
      free_[b] = node->next;
      --idle_[b];
      ++reused_;
      return node;
    }
    ++fresh_;
    return ::operator new((b + 1) * kStep);
  }

  /// `n` must be the size passed to the matching allocate().
  void deallocate(void* p, std::size_t n) noexcept {
    const std::size_t b = bucket_of(n);
    if (b >= kBuckets ||
        (idle_[b] >= kMaxIdleBytesPerBucket / ((b + 1) * kStep) &&
         !primed(p))) {
      ::operator delete(p);
      return;
    }
    FreeNode* node = static_cast<FreeNode*>(p);
    node->next = free_[b];
    free_[b] = node;
    ++idle_[b];
  }

  /// Pre-fill the free list serving `n`-byte requests with up to `count`
  /// chunks (clipped to the idle-byte cap).  Lets a component that knows its
  /// steady-state node size warm the pool at construction, so a high-water
  /// mark first reached mid-run never takes a fresh-chunk miss — the same
  /// pre-sizing contract as MappingTable::reserve.  The chunks are carved
  /// from one allocation, which the pool keeps until it is destroyed, so
  /// priming costs one allocation instead of `count`.  No-op for unpooled
  /// sizes.
  void prime(std::size_t n, std::size_t count) {
    const std::size_t b = bucket_of(n);
    if (b >= kBuckets) return;
    const std::size_t size = (b + 1) * kStep;
    const std::size_t cap = kMaxIdleBytesPerBucket / size;
    count = idle_[b] >= cap ? 0 : std::min(count, cap - idle_[b]);
    if (count == 0) return;
    auto* block = static_cast<std::byte*>(::operator new(size * count));
    const auto lo = reinterpret_cast<std::uintptr_t>(block);
    blocks_.emplace_back(lo, lo + size * count);
    for (std::size_t i = 0; i < count; ++i) {
      auto* node = reinterpret_cast<FreeNode*>(block + i * size);
      node->next = free_[b];
      free_[b] = node;
      ++idle_[b];
    }
  }

  /// Chunks served by ::operator new (pool misses).
  std::uint64_t fresh_allocs() const { return fresh_; }
  /// Chunks served from a free list.
  std::uint64_t reused_allocs() const { return reused_; }
  std::size_t idle_chunks() const {
    std::size_t total = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) total += idle_[b];
    return total;
  }

 private:
  static constexpr std::size_t kBuckets = kMaxChunk / kStep;

  struct FreeNode {
    FreeNode* next;
  };
  static_assert(kStep >= sizeof(FreeNode));

  /// True when `p` lies in a prime() block: such a chunk is never freed on
  /// its own, even past the idle cap.
  bool primed(const void* p) const {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    return std::any_of(blocks_.begin(), blocks_.end(), [a](const auto& bl) {
      return a >= bl.first && a < bl.second;
    });
  }

  /// Bucket index for a request, kBuckets when unpooled (0 or > kMaxChunk).
  static std::size_t bucket_of(std::size_t n) {
    if (n == 0 || n > kMaxChunk) return kBuckets;
    return (n - 1) / kStep;
  }

  std::array<FreeNode*, kBuckets> free_ = {};
  std::array<std::uint32_t, kBuckets> idle_ = {};
  /// Address ranges [first, second) of the prime() blocks.
  std::vector<std::pair<std::uintptr_t, std::uintptr_t>> blocks_;
  std::uint64_t fresh_ = 0;
  std::uint64_t reused_ = 0;
};

/// std-allocator adapter over a ChunkPool.  The pool must outlive every
/// container using it (declare the pool before the container member).
template <typename T>
class PoolAllocator {
 public:
  using value_type = T;

  explicit PoolAllocator(ChunkPool& pool) : pool_(&pool) {}
  template <typename U>
  PoolAllocator(const PoolAllocator<U>& other) : pool_(other.pool()) {}

  T* allocate(std::size_t n) {
    return static_cast<T*>(pool_->allocate(n * sizeof(T)));
  }
  void deallocate(T* p, std::size_t n) noexcept {
    pool_->deallocate(p, n * sizeof(T));
  }

  ChunkPool* pool() const { return pool_; }

  friend bool operator==(const PoolAllocator& a, const PoolAllocator& b) {
    return a.pool_ == b.pool_;
  }

 private:
  ChunkPool* pool_;
};

/// The coroutine-frame pool of the current thread (sim::Task's promises
/// allocate and free through it).  Thread-local only for exp::Runner jobs:
/// a simulation, every shard included, runs on one thread, but a Runner
/// runs several simulations on its workers at once.  A frame is therefore
/// always freed on the thread that allocated it, and must be freed before
/// that thread exits — which the structured Task/TaskGroup/JoinSet
/// ownership discipline guarantees.
inline ChunkPool& frame_pool() {
  // lint: shared-ok (one pool per exp::Runner worker thread by design; a frame is always freed on its allocating thread)
  thread_local ChunkPool pool;
  return pool;
}

}  // namespace ibridge::sim
