#include "storage/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>

namespace ibridge::storage {

namespace {

void absorb(DispatchBatch& b, PendingRequest p) {
  if (p.req.lbn < b.lbn) b.lbn = p.req.lbn;
  b.sectors += p.req.sectors;
  b.members.push_back(std::move(p));
}

}  // namespace

// ---------------------------------------------------------------- Noop ----

std::size_t NoopScheduler::bucket(IoDirection dir, std::int64_t lbn) const {
  // Fibonacci hashing: runs of neighbouring LBNs spread over the table.
  const std::uint64_t key = (static_cast<std::uint64_t>(lbn) << 1) |
                            static_cast<std::uint64_t>(dir);
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >>
                                  bucket_shift_);
}

void NoopScheduler::link(std::size_t pos) {
  const BlockRequest& r = queue_[pos].req;
  std::uint32_t& start_head = by_start_[bucket(r.dir, r.lbn)];
  std::uint32_t& end_head = by_end_[bucket(r.dir, r.end())];
  links_[pos] = Links{start_head, end_head, false};
  start_head = static_cast<std::uint32_t>(pos);
  end_head = static_cast<std::uint32_t>(pos);
}

void NoopScheduler::tombstone(std::size_t pos) {
  links_[pos].gone = true;
  --live_;
}

void NoopScheduler::reindex() {
  assert(queue_.capacity() < kNil);
  // Empty every chain.  A non-empty bucket heads at a slot whose key hashes
  // to it, so clearing the buckets of every slot's keys costs O(slots), not
  // O(buckets): a once-deep queue still rewinds cheaply each time it drains.
  const std::size_t buckets =
      std::bit_ceil(std::max<std::size_t>(queue_.capacity(), 16));
  if (by_start_.size() != buckets) {
    by_start_.assign(buckets, kNil);
    by_end_.assign(buckets, kNil);
    bucket_shift_ = 64 - std::countr_zero(buckets);
  } else {
    for (const PendingRequest& p : queue_) {
      by_start_[bucket(p.req.dir, p.req.lbn)] = kNil;
      by_end_[bucket(p.req.dir, p.req.end())] = kNil;
    }
  }
  links_.resize(queue_.capacity());
  // Drop the tombstones, keeping FIFO order, and rethread the survivors
  // oldest first so every chain runs from newest to oldest.
  std::size_t kept = 0;
  for (std::size_t i = head_; i < queue_.size(); ++i) {
    if (links_[i].gone) continue;
    if (kept != i) queue_[kept] = std::move(queue_[i]);
    link(kept++);
  }
  queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(kept),
               queue_.end());
  head_ = 0;
}

void NoopScheduler::add(PendingRequest p) {
  // Reclaim tombstones before growing the tail: once they outnumber the
  // live requests, compact in place.  Every buffer's capacity is reused
  // forever, so a steady-state queue never allocates.
  const std::size_t dead = queue_.size() - live_;
  if (dead > 64 && dead * 2 > queue_.size()) reindex();
  queue_.push_back(std::move(p));
  ++live_;
  if (links_.size() != queue_.capacity()) {
    reindex();  // queue_ reallocated: grow the index with it
  } else {
    link(queue_.size() - 1);
  }
}

std::uint32_t NoopScheduler::oldest_mergeable(const DispatchBatch& b) const {
  // The lowest FIFO position wins: the request a scan from the head would
  // meet first.  Chains also carry tombstones and hash collisions, so every
  // entry is checked in full.
  const std::int64_t room = max_sectors_ - b.sectors;
  std::uint32_t best = kNil;
  for (std::uint32_t i = by_start_[bucket(b.dir, b.end())]; i != kNil;
       i = links_[i].next_by_start) {
    const BlockRequest& r = queue_[i].req;
    if (i < best && !links_[i].gone && r.dir == b.dir && r.lbn == b.end() &&
        r.sectors <= room) {
      best = i;
    }
  }
  for (std::uint32_t i = by_end_[bucket(b.dir, b.lbn)]; i != kNil;
       i = links_[i].next_by_end) {
    const BlockRequest& r = queue_[i].req;
    if (i < best && !links_[i].gone && r.dir == b.dir && r.end() == b.lbn &&
        r.sectors <= room) {
      best = i;
    }
  }
  return best;
}

void NoopScheduler::pop_next(std::int64_t /*head_lbn*/, DispatchBatch& out) {
  out.reset();
  if (live_ == 0) return;

  PendingRequest& front = queue_[head_];
  out.dir = front.req.dir;
  out.lbn = front.req.lbn;
  out.sectors = front.req.sectors;
  out.members.push_back(std::move(front));
  tombstone(head_);

  // A merge moves the batch's ends, which can make another request
  // mergeable, so look again after every one.
  for (std::uint32_t i = oldest_mergeable(out); i != kNil;
       i = oldest_mergeable(out)) {
    absorb(out, std::move(queue_[i]));
    tombstone(i);
  }
  while (head_ < queue_.size() && links_[head_].gone) ++head_;
  if (live_ == 0) reindex();  // rewind the drained FIFO
}

std::optional<PeekInfo> NoopScheduler::peek(std::int64_t head_lbn) const {
  if (live_ == 0) return std::nullopt;
  return PeekInfo{std::llabs(queue_[head_].req.lbn - head_lbn),
                  queue_[head_].req.tag};
}

}  // namespace ibridge::storage
