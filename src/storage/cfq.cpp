#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <limits>

#include "storage/scheduler.hpp"

namespace ibridge::storage {

namespace {

bool can_merge(const DispatchBatch& b, const BlockRequest& r,
               std::int64_t max_sectors) {
  return r.dir == b.dir && b.sectors + r.sectors <= max_sectors &&
         (r.lbn == b.end() || r.end() == b.lbn);
}

}  // namespace

void CfqScheduler::rr_push(int tag) {
  // Same allocation-free FIFO idiom as NoopScheduler's queue: reclaim the
  // popped prefix instead of letting the buffer crawl forward.
  if (rr_head_ == rr_.size()) {
    rr_.clear();
    rr_head_ = 0;
  } else if (rr_head_ > 64 && rr_head_ * 2 > rr_.size()) {
    rr_.erase(rr_.begin(), rr_.begin() + static_cast<std::ptrdiff_t>(rr_head_));
    rr_head_ = 0;
  }
  if (rr_head_ < rr_.size() && rr_.back().tag == tag &&
      rr_.back().count < std::numeric_limits<std::uint32_t>::max()) {
    ++rr_.back().count;
  } else {
    rr_.push_back({tag, 1});
  }
}

void CfqScheduler::add(PendingRequest p) {
  const int tag = p.req.tag;
  auto it = queues_.find(tag);
  if (it == queues_.end()) {
    it = queues_.emplace(tag, StreamQueue(QueueAlloc(pool_))).first;
  }
  if (it->second.empty()) {
    // Stream transitions idle -> pending: enter the round-robin.
    rr_push(tag);
  }
  it->second.emplace(Key{p.req.lbn, seq_++}, std::move(p));
  ++size_;
}

const PendingRequest* CfqScheduler::pick(const StreamQueue& q,
                                         std::int64_t head) const {
  assert(!q.empty());
  // SCAN within the stream: first request at or after the head, else the
  // lowest-LBN one.
  auto it = q.lower_bound(Key{head, 0});
  if (it == q.end()) it = q.begin();
  return &it->second;
}

void CfqScheduler::note_stream_drained(int tag) {
  // Erase the drained stream's entry: an empty StreamQueue already behaved
  // exactly like an absent one everywhere (pop_next, peek, and the rr_ skip
  // all test for emptiness), and with pooled nodes re-creating it on the
  // stream's next arrival is a pool-recycled insert, not an allocation.
  // Keeping entries forever would let a million-rank sweep pin one node per
  // tag per disk.  Drop from round-robin lazily: rr_ entries for drained
  // streams are skipped in pop_next.
  auto it = queues_.find(tag);
  if (it != queues_.end() && it->second.empty()) queues_.erase(it);
}

bool CfqScheduler::absorb_contiguous(DispatchBatch& batch) {
  // Search every stream for a request contiguous with the batch (the
  // kernel's cross-queue back/front merge).  Returns true on progress.  A
  // stream drained by the merge loses its map entry (unless it is the
  // active one, whose queue pop_next may still touch — note_stream_drained
  // reaps that after the merge loop).
  for (auto qit = queues_.begin(); qit != queues_.end(); ++qit) {
    StreamQueue& q = qit->second;
    if (q.empty()) continue;
    // Back merge: request starting exactly at batch end.
    auto it = q.lower_bound(Key{batch.end(), 0});
    if (it != q.end() && it->second.req.lbn == batch.end() &&
        can_merge(batch, it->second.req, max_sectors_)) {
      batch.sectors += it->second.req.sectors;
      batch.members.push_back(std::move(it->second));
      q.erase(it);
      --size_;
      if (q.empty() && qit->first != active_) queues_.erase(qit);
      return true;
    }
    // Front merge: request ending exactly at batch start.
    it = q.lower_bound(Key{batch.lbn, 0});
    while (it != q.begin()) {
      --it;
      if (it->second.req.end() == batch.lbn &&
          can_merge(batch, it->second.req, max_sectors_)) {
        batch.lbn = it->second.req.lbn;
        batch.sectors += it->second.req.sectors;
        batch.members.push_back(std::move(it->second));
        q.erase(it);
        --size_;
        if (q.empty() && qit->first != active_) queues_.erase(qit);
        return true;
      }
      if (it->second.req.end() < batch.lbn) break;
    }
  }
  return false;
}

void CfqScheduler::pop_next(std::int64_t head_lbn, DispatchBatch& batch) {
  batch.reset();
  if (size_ == 0) return;

  // Keep the active stream while it has requests and budget; otherwise
  // rotate to the next stream with pending work.
  auto active_has_work = [&] {
    if (active_ < 0 || budget_ <= 0) return false;
    auto it = queues_.find(active_);
    return it != queues_.end() && !it->second.empty();
  };
  if (!active_has_work()) {
    if (active_ >= 0) {
      auto it = queues_.find(active_);
      if (it != queues_.end() && !it->second.empty()) {
        rr_push(active_);  // budget exhausted, still pending
      }
    }
    active_ = -1;
    while (rr_head_ < rr_.size()) {
      Turns& turns = rr_[rr_head_];
      auto it = queues_.find(turns.tag);
      if (it == queues_.end() || it->second.empty()) {
        ++rr_head_;  // every turn of the run is stale
        continue;
      }
      active_ = turns.tag;
      budget_ = quantum_;
      if (--turns.count == 0) ++rr_head_;
      break;
    }
    if (active_ < 0) return;  // rr_ was stale; size_ said otherwise
  }

  StreamQueue& q = queues_.find(active_)->second;
  const PendingRequest* chosen = pick(q, head_lbn);
  const Key key{chosen->req.lbn, 0};
  auto it = q.lower_bound(key);
  // pick() returned either lower_bound(head) or begin(); relocate it.
  if (it == q.end() || &it->second != chosen) {
    for (it = q.begin(); it != q.end() && &it->second != chosen; ++it) {
    }
  }
  assert(it != q.end());

  batch.dir = it->second.req.dir;
  batch.lbn = it->second.req.lbn;
  batch.sectors = it->second.req.sectors;
  batch.members.push_back(std::move(it->second));
  q.erase(it);
  --size_;
  --budget_;
  last_tag_ = active_;

  while (absorb_contiguous(batch)) {
  }
  note_stream_drained(active_);
}

std::optional<PeekInfo> CfqScheduler::peek(std::int64_t head_lbn) const {
  if (size_ == 0) return std::nullopt;
  // What pop_next would dispatch: the active stream's best candidate if it
  // still has work and budget, else the next stream's.
  if (active_ >= 0 && budget_ > 0) {
    auto it = queues_.find(active_);
    if (it != queues_.end() && !it->second.empty()) {
      const PendingRequest* r = pick(it->second, head_lbn);
      return PeekInfo{std::llabs(r->req.lbn - head_lbn), r->req.tag};
    }
  }
  for (std::size_t i = rr_head_; i < rr_.size(); ++i) {
    const int tag = rr_[i].tag;
    auto it = queues_.find(tag);
    if (it != queues_.end() && !it->second.empty()) {
      const PendingRequest* r = pick(it->second, head_lbn);
      return PeekInfo{std::llabs(r->req.lbn - head_lbn), r->req.tag};
    }
  }
  return std::nullopt;
}

}  // namespace ibridge::storage
