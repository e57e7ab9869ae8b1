// Ordered unique-key index: Key -> std::uint32_t (a MappingTable slot).
//
// Keys live in sorted fixed-capacity blocks, and a flat array holds each
// block's first key in block order.  A lookup is one binary search over that
// array and one inside a block: two short contiguous searches instead of a
// red-black tree's pointer chase, and an in-order walk reads keys
// sequentially.  An insert shifts at most one block's tail, splitting a
// full block in half; an erase that leaves a block under a quarter full
// merges it into a neighbour with room, and a block that empties goes on a
// free list for the next split to reuse.  Block storage grows on demand and
// is never pre-reserved.
//
// Pos names a key by (block rank, index within the block).  Any insert or
// erase invalidates every Pos.
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ibridge::core {

template <typename Key>
class SortedBlocks {
 public:
  static constexpr std::uint32_t kBlockCap = 64;

  struct Pos {
    std::uint32_t block = 0;  ///< rank in block order
    std::uint32_t index = 0;  ///< position within the block
    friend bool operator==(const Pos&, const Pos&) = default;
  };

  std::size_t size() const { return size_; }
  /// Blocks in use (the free list excluded).
  std::size_t block_count() const { return order_.size(); }
  /// Blocks ever allocated: those in use plus the free list.
  std::size_t storage_blocks() const { return blocks_.size(); }

  Pos begin() const { return {}; }
  Pos end() const { return {rank_count(), 0}; }
  /// The position after `p` (`p` must not be end()).
  Pos next(Pos p) const {
    if (++p.index == block_at(p.block).n) p = {p.block + 1, 0};
    return p;
  }
  /// The position before `p` (`p` must not be begin()).
  Pos prev(Pos p) const {
    assert(p != begin());
    if (p.index > 0) return {p.block, p.index - 1};
    return {p.block - 1, block_at(p.block - 1).n - 1};
  }
  const Key& key(Pos p) const { return block_at(p.block).keys[p.index]; }
  std::uint32_t value(Pos p) const { return block_at(p.block).vals[p.index]; }

  /// First key strictly greater than `k` (end() if none).
  Pos upper_bound(const Key& k) const {
    const std::uint32_t r = blocks_upto(k);
    if (r == 0) return begin();  // k precedes every key
    const Block& b = block_at(r - 1);
    const auto i = static_cast<std::uint32_t>(
        std::upper_bound(b.keys.begin(), b.keys.begin() + b.n, k) -
        b.keys.begin());
    return i == b.n ? Pos{r, 0} : Pos{r - 1, i};
  }

  /// Position of `k` (end() if absent).
  Pos find(const Key& k) const {
    const std::uint32_t r = blocks_upto(k);
    if (r == 0) return end();
    const Block& b = block_at(r - 1);
    const std::uint32_t i = lower_index(b, k);
    if (i == b.n || k < b.keys[i]) return end();
    return {r - 1, i};
  }

  /// Insert `k` -> `v`; false (and no change) if `k` is already present.
  bool insert(const Key& k, std::uint32_t v) {
    if (order_.empty()) {
      const std::uint32_t id = alloc_block();
      order_.push_back(id);
      first_.push_back(k);
      Block& b = blocks_[id];
      b.keys[0] = k;
      b.vals[0] = v;
      b.n = 1;
      ++size_;
      return true;
    }
    // The block that owns k: the last one starting at or before it, or the
    // first block when k precedes every key.
    std::uint32_t r = blocks_upto(k);
    if (r > 0) --r;
    std::uint32_t i = lower_index(blocks_[order_[r]], k);
    {
      const Block& b = blocks_[order_[r]];
      if (i < b.n && !(k < b.keys[i])) return false;  // already present
    }
    if (blocks_[order_[r]].n == kBlockCap) {
      split(r);  // may grow blocks_: re-fetch references below
      constexpr std::uint32_t kHalf = kBlockCap / 2;
      if (i > kHalf) {
        ++r;
        i -= kHalf;
      }
    }
    Block& b = blocks_[order_[r]];
    std::move_backward(b.keys.begin() + i, b.keys.begin() + b.n,
                       b.keys.begin() + b.n + 1);
    std::move_backward(b.vals.begin() + i, b.vals.begin() + b.n,
                       b.vals.begin() + b.n + 1);
    b.keys[i] = k;
    b.vals[i] = v;
    ++b.n;
    if (i == 0) first_[r] = k;
    ++size_;
    return true;
  }

  /// Remove `k`; false if it was absent.
  bool erase(const Key& k) {
    const Pos p = find(k);
    if (p == end()) return false;
    const std::uint32_t r = p.block;
    Block& b = blocks_[order_[r]];
    std::move(b.keys.begin() + p.index + 1, b.keys.begin() + b.n,
              b.keys.begin() + p.index);
    std::move(b.vals.begin() + p.index + 1, b.vals.begin() + b.n,
              b.vals.begin() + p.index);
    --b.n;
    --size_;
    if (b.n == 0) {
      drop_rank(r);
      return true;
    }
    if (p.index == 0) first_[r] = b.keys[0];
    if (b.n < kMergeBelow) try_merge(r);
    return true;
  }

 private:
  /// An erase leaving fewer keys than this tries to merge the block.
  static constexpr std::uint32_t kMergeBelow = kBlockCap / 4;

  struct Block {
    std::uint32_t n = 0;
    std::array<Key, kBlockCap> keys{};
    std::array<std::uint32_t, kBlockCap> vals{};
  };

  std::uint32_t rank_count() const {
    return static_cast<std::uint32_t>(order_.size());
  }
  const Block& block_at(std::uint32_t rank) const {
    return blocks_[order_[rank]];
  }

  /// Number of blocks whose first key is <= k.
  std::uint32_t blocks_upto(const Key& k) const {
    return static_cast<std::uint32_t>(
        std::upper_bound(first_.begin(), first_.end(), k) - first_.begin());
  }

  static std::uint32_t lower_index(const Block& b, const Key& k) {
    return static_cast<std::uint32_t>(
        std::lower_bound(b.keys.begin(), b.keys.begin() + b.n, k) -
        b.keys.begin());
  }

  std::uint32_t alloc_block() {
    if (!spare_.empty()) {
      const std::uint32_t id = spare_.back();
      spare_.pop_back();
      return id;
    }
    blocks_.emplace_back();
    return static_cast<std::uint32_t>(blocks_.size() - 1);
  }

  /// Move the upper half of the full block at rank `r` into a new block
  /// inserted at rank r + 1.
  void split(std::uint32_t r) {
    constexpr std::uint32_t kHalf = kBlockCap / 2;
    const std::uint32_t id = alloc_block();
    Block& lo = blocks_[order_[r]];
    Block& hi = blocks_[id];
    std::copy(lo.keys.begin() + kHalf, lo.keys.end(), hi.keys.begin());
    std::copy(lo.vals.begin() + kHalf, lo.vals.end(), hi.vals.begin());
    hi.n = kBlockCap - kHalf;
    lo.n = kHalf;
    order_.insert(order_.begin() + r + 1, id);
    first_.insert(first_.begin() + r + 1, hi.keys[0]);
  }

  /// Unlink the block at rank `r` and recycle its storage.
  void drop_rank(std::uint32_t r) {
    spare_.push_back(order_[r]);
    order_.erase(order_.begin() + r);
    first_.erase(first_.begin() + r);
  }

  /// Merge the underfull block at rank `r` with its smaller neighbour when
  /// both fit in one block.
  void try_merge(std::uint32_t r) {
    const std::uint32_t n = block_at(r).n;
    std::uint32_t left = r;  // the pair (left, left + 1) to merge
    std::uint32_t best = kBlockCap + 1;
    if (r > 0 && block_at(r - 1).n + n <= kBlockCap) {
      best = block_at(r - 1).n;
      left = r - 1;
    }
    if (r + 1 < rank_count() && block_at(r + 1).n + n <= kBlockCap &&
        block_at(r + 1).n < best) {
      best = block_at(r + 1).n;
      left = r;
    }
    if (best > kBlockCap) return;
    Block& a = blocks_[order_[left]];
    Block& b = blocks_[order_[left + 1]];
    std::copy(b.keys.begin(), b.keys.begin() + b.n, a.keys.begin() + a.n);
    std::copy(b.vals.begin(), b.vals.begin() + b.n, a.vals.begin() + a.n);
    a.n += b.n;
    drop_rank(left + 1);
  }

  std::vector<Block> blocks_;         // storage; order_ ranks it
  std::vector<std::uint32_t> order_;  // block ids in key order
  std::vector<Key> first_;            // first key of each ranked block
  std::vector<std::uint32_t> spare_;  // recycled block ids
  std::size_t size_ = 0;
};

}  // namespace ibridge::core
