// I/O schedulers for the simulated block devices.
//
// The paper runs CFQ on the hard disks and Noop on the SSDs.  What matters
// for reproducing its block-level request-size distributions (Figs 2(c-e), 5)
// is (a) whether contiguous queued requests get merged into one dispatch and
// (b) in what order requests are dispatched.  NoopScheduler models a FIFO
// with front/back merging; CfqScheduler models per-stream round-robin
// service in SCAN order with cross-stream merging.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/mem_pool.hpp"
#include "sim/sync.hpp"
#include "storage/block.hpp"

namespace ibridge::storage {

/// A queued request together with its submitter's completion record (null
/// when nobody waits for it).
struct PendingRequest {
  BlockRequest req;
  sim::SimTime submitted;
  sim::Completion<BlockCompletion>* done = nullptr;
};

/// A batch of pending requests merged into one contiguous device operation.
struct DispatchBatch {
  IoDirection dir = IoDirection::kRead;
  std::int64_t lbn = 0;
  std::int64_t sectors = 0;
  std::vector<PendingRequest> members;

  bool empty() const { return members.empty(); }
  std::int64_t end() const { return lbn + sectors; }
  std::int64_t bytes() const { return sectors * kSectorBytes; }

  /// Clear for reuse, keeping the members vector's capacity.  The devices
  /// recycle their in-flight batches through this, so steady-state dispatch
  /// never allocates.
  void reset() {
    dir = IoDirection::kRead;
    lbn = 0;
    sectors = 0;
    members.clear();
  }
};

/// What pop_next would dispatch, without removing it.
struct PeekInfo {
  std::int64_t distance = 0;  ///< |candidate lbn - head|
  int tag = -1;               ///< candidate's issuing stream
};

/// Scheduler interface: owns the pending queue between add() and pop_next().
class IoScheduler {
 public:
  virtual ~IoScheduler() = default;

  virtual void add(PendingRequest p) = 0;

  /// Remove the next batch to dispatch given the current head position into
  /// `out` (reset()s it first; its members capacity survives reuse).  `out`
  /// stays empty when the queue is.
  virtual void pop_next(std::int64_t head_lbn, DispatchBatch& out) = 0;

  /// Value-returning convenience for tests and tools.
  DispatchBatch pop_next(std::int64_t head_lbn) {
    DispatchBatch out;
    pop_next(head_lbn, out);
    return out;
  }

  virtual bool empty() const = 0;
  virtual std::size_t depth() const = 0;

  /// Inspect the request pop_next would dispatch.  Used by the device's
  /// anticipation heuristic.
  virtual std::optional<PeekInfo> peek(std::int64_t head_lbn) const = 0;
};

/// FIFO dispatch with front/back merging of contiguous same-direction
/// requests (the Linux noop scheduler still merges).  A dispatch takes the
/// FIFO head, then repeatedly absorbs the oldest queued request that starts
/// where the batch ends or ends where it starts and still fits the merge
/// cap, until none is left.
class NoopScheduler final : public IoScheduler {
 public:
  /// `max_merge_sectors` mirrors the kernel's max_sectors_kb limit.
  explicit NoopScheduler(std::int64_t max_merge_sectors = 1024)
      : max_sectors_(max_merge_sectors) {}

  using IoScheduler::pop_next;
  void add(PendingRequest p) override;
  void pop_next(std::int64_t head_lbn, DispatchBatch& out) override;
  bool empty() const override { return live_ == 0; }
  std::size_t depth() const override { return live_; }
  std::optional<PeekInfo> peek(std::int64_t head_lbn) const override;

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Per FIFO position: the next older position on each hash chain, and
  /// whether the request has already left the queue (a tombstone).
  struct Links {
    std::uint32_t next_by_start = kNil;
    std::uint32_t next_by_end = kNil;
    bool gone = false;
  };

  std::size_t bucket(IoDirection dir, std::int64_t lbn) const;
  void link(std::size_t pos);
  void tombstone(std::size_t pos);
  std::uint32_t oldest_mergeable(const DispatchBatch& b) const;
  void reindex();

  std::int64_t max_sectors_;
  // FIFO as a vector with an advancing head: pop_front is ++head_, and a
  // request merged out of the middle stays behind as a tombstone the head
  // skips.  add() compacts the live requests down in place once tombstones
  // dominate, so a steady-state queue reuses one buffer forever (std::deque
  // would churn a 512-byte chunk through the allocator every few dozen
  // requests).
  std::vector<PendingRequest> queue_;
  // Merge index: two intrusive hash chains threaded through links_ (one
  // entry per queue_ slot, sized to its capacity), keyed on (direction,
  // start LBN) and (direction, end LBN).  A bucket holds the newest position
  // of its chain.  Both are rebuilt whenever queue_ compacts or grows.  A
  // rescan of the queue per merge would cost O(depth) on the thousands-deep
  // SSD queues that BTIO's small records build.
  std::vector<Links> links_;
  std::vector<std::uint32_t> by_start_;
  std::vector<std::uint32_t> by_end_;
  int bucket_shift_ = 0;
  std::size_t head_ = 0;
  std::size_t live_ = 0;
};

/// CFQ-like scheduler: one queue per issuing stream (BlockRequest::tag),
/// served in round-robin slices of `quantum` dispatches.  Within the active
/// stream requests dispatch in SCAN order; each dispatch absorbs requests
/// contiguous with it from ANY stream (the kernel's cross-queue merge).
/// This is the regime the paper's testbed ran (CFQ on the data-server
/// disks): per-process service order means concurrent strided streams do
/// NOT merge into long runs, which is what produces Figure 2(c)'s
/// mostly-64KB dispatch distribution.
class CfqScheduler final : public IoScheduler {
 public:
  explicit CfqScheduler(int quantum = 8, std::int64_t max_merge_sectors = 1024)
      : quantum_(quantum), max_sectors_(max_merge_sectors) {
    // Pre-warm the node pool and the round-robin ring for a queue-depth
    // high-water mark of kPrimeDepth requests.  Both rb-tree node types
    // (outer tag entry, inner per-stream entry) land in the 128-byte size
    // class on LP64; a depth record first set mid-run then costs a recycled
    // chunk, not a fresh one — same pre-sizing contract as
    // MappingTable::reserve, covered by bench_scale --check's zero-alloc
    // steady-state gate.
    pool_.prime(128, kPrimeDepth);
    pool_.prime(192, kPrimeDepth);
    rr_.reserve(kPrimeDepth);
  }

  using IoScheduler::pop_next;
  void add(PendingRequest p) override;
  void pop_next(std::int64_t head_lbn, DispatchBatch& out) override;
  bool empty() const override { return size_ == 0; }
  std::size_t depth() const override { return size_; }
  std::optional<PeekInfo> peek(std::int64_t head_lbn) const override;

  /// Tag whose stream was dispatched from most recently (for the device's
  /// CFQ-style anticipation: an arrival from this tag ends idling).
  int last_tag() const { return last_tag_; }

  /// Queue depth (pending requests per disk) the constructor pre-warms node
  /// pools for; ~80 KB per scheduler.  Deeper queues still work — they just
  /// pay a one-time pool miss per chunk of extra depth.
  static constexpr std::size_t kPrimeDepth = 256;

 private:
  // Per-stream queue sorted by (lbn, arrival seq).  Both map levels allocate
  // their nodes from the scheduler's own ChunkPool: nodes freed by a
  // dispatch are recycled by the next add(), so steady-state queue churn
  // never touches the global allocator (the million-rank campaign's
  // zero-allocs-per-request gate covers this path via bench_scale --check).
  using Key = std::pair<std::int64_t, std::uint64_t>;
  using QueueAlloc = sim::PoolAllocator<std::pair<const Key, PendingRequest>>;
  using StreamQueue = std::map<Key, PendingRequest, std::less<Key>, QueueAlloc>;
  using TagAlloc = sim::PoolAllocator<std::pair<const int, StreamQueue>>;

  const PendingRequest* pick(const StreamQueue& q, std::int64_t head) const;
  bool absorb_contiguous(DispatchBatch& batch);
  void note_stream_drained(int tag);
  void rr_push(int tag);

  int quantum_;
  std::int64_t max_sectors_;
  // Declared before the maps: the pool must outlive every node they hold.
  sim::ChunkPool pool_;
  std::map<int, StreamQueue, std::less<int>, TagAlloc> queues_{TagAlloc(pool_)};
  // Round-robin turns: one per idle-to-pending transition of a stream (and
  // per quantum a still-pending stream uses up), consumed in FIFO order;
  // a turn whose stream is empty when reached is skipped.  Consecutive
  // turns of one stream are stored as one run, so a single stream that
  // keeps draining and refilling while it is active — a write-back stream
  // of read-modify-writes — adds to a count instead of growing the ring by
  // one entry per request.  A vector with an advancing head (same
  // allocation-free FIFO idiom as NoopScheduler).
  struct Turns {
    int tag;
    std::uint32_t count;
  };
  std::vector<Turns> rr_;
  std::size_t rr_head_ = 0;
  int active_ = -1;
  int budget_ = 0;
  int last_tag_ = -1;
  std::uint64_t seq_ = 0;
  std::size_t size_ = 0;
};

}  // namespace ibridge::storage
