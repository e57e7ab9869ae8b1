#include "core/mapping_table.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <istream>
#include <ostream>
#include <string>

namespace ibridge::core {

MappingTable::MappingTable()
    : entries_(0, EntriesMap::hasher{}, EntriesMap::key_equal{},
               EntriesMap::allocator_type{arena_}),
      by_file_(ByFileMap::key_compare{}, ByFileMap::allocator_type{arena_}),
      by_log_(ByLogMap::key_compare{}, ByLogMap::allocator_type{arena_}) {}

void MappingTable::reserve(std::size_t entries) {
  slab_.reserve(entries);
  entries_.reserve(entries);
  dirty_scratch_.reserve(entries);
}

std::uint32_t MappingTable::slot_of(EntryId id) const {
  auto it = entries_.find(id);
  assert(it != entries_.end());
  return it->second;
}

std::uint32_t MappingTable::alloc_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t s = free_head_;
    free_head_ = slab_[s].link[kLruChain].next;
    return s;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void MappingTable::free_slot(std::uint32_t s) {
  slab_[s].id = kNoEntry;
  slab_[s].link[kLruChain].next = free_head_;
  free_head_ = s;
}

void MappingTable::list_push_back(int chain, ListHead& h, std::uint32_t s) {
  Links& l = slab_[s].link[chain];
  l.prev = h.tail;
  l.next = kNil;
  if (h.tail != kNil) {
    slab_[h.tail].link[chain].next = s;
  } else {
    h.head = s;
  }
  h.tail = s;
  ++h.size;
}

void MappingTable::list_unlink(int chain, ListHead& h, std::uint32_t s) {
  Links& l = slab_[s].link[chain];
  if (l.prev != kNil) {
    slab_[l.prev].link[chain].next = l.next;
  } else {
    h.head = l.next;
  }
  if (l.next != kNil) {
    slab_[l.next].link[chain].prev = l.prev;
  } else {
    h.tail = l.prev;
  }
  l.prev = l.next = kNil;
  --h.size;
}

EntryId MappingTable::insert(CacheEntry e) {
  assert(e.length > Bytes::zero());
  assert(!has_overlap(e.file, e.file_off, e.length) &&
         "insert over existing cached range");
  const EntryId id = next_id_++;
  const std::uint32_t s = alloc_slot();
  Slot& slot = slab_[s];
  slot.entry = e;
  slot.id = id;
  entries_.emplace(id, s);
  list_push_back(kLruChain, lru_[idx(e.klass)], s);
  if (e.dirty) list_push_back(kDirtyChain, dirty_[idx(e.klass)], s);
  account_add(e);
  index_insert(id, e);
  return id;
}

CacheEntry MappingTable::erase(EntryId id) {
  const std::uint32_t s = slot_of(id);
  const CacheEntry e = slab_[s].entry;
  list_unlink(kLruChain, lru_[idx(e.klass)], s);
  if (e.dirty) list_unlink(kDirtyChain, dirty_[idx(e.klass)], s);
  account_remove(e);
  index_erase(id, e);
  entries_.erase(id);
  free_slot(s);
  return e;
}

const CacheEntry& MappingTable::get(EntryId id) const {
  return slab_[slot_of(id)].entry;
}

void MappingTable::mark_clean(EntryId id) {
  const std::uint32_t s = slot_of(id);
  CacheEntry& e = slab_[s].entry;
  if (e.dirty) {
    e.dirty = false;
    dirty_bytes_ -= e.length;
    list_unlink(kDirtyChain, dirty_[idx(e.klass)], s);
  }
}

void MappingTable::mark_dirty(EntryId id) {
  const std::uint32_t s = slot_of(id);
  CacheEntry& e = slab_[s].entry;
  if (!e.dirty) {
    e.dirty = true;
    dirty_bytes_ += e.length;
    list_push_back(kDirtyChain, dirty_[idx(e.klass)], s);
  }
}

void MappingTable::touch(EntryId id) {
  const std::uint32_t s = slot_of(id);
  ListHead& lru = lru_[idx(slab_[s].entry.klass)];
  if (lru.tail == s) return;  // already MRU
  list_unlink(kLruChain, lru, s);
  list_push_back(kLruChain, lru, s);
}

// lint: no-alloc
void MappingTable::coverage_into(fsim::FileId file, Offset off, Bytes len,
                                 std::vector<LogSlice>& out) const {
  out.clear();
  const Offset end = off + len;

  Offset pos = off;
  // Find the entry containing `pos`: the last entry of `file` starting at
  // or before it.
  auto it = by_file_.upper_bound(FileKey{file, pos});
  if (it == by_file_.begin()) return;
  --it;
  if (it->first.first != file) return;
  while (pos < end) {
    const CacheEntry& e = slab_[slot_of(it->second)].entry;
    if (pos < e.file_off || pos >= e.file_end()) {  // gap
      out.clear();
      return;
    }
    const Bytes take = std::min(end, e.file_end()) - pos;
    // lint: alloc-ok (pooled lease: serve passes slice_pool_ vectors whose capacity survives release/acquire)
    out.push_back({it->second, pos, e.log_off + (pos - e.file_off), take});
    pos += take;
    if (pos >= end) break;
    ++it;
    if (it == by_file_.end() || it->first.first != file) {  // ran out
      out.clear();
      return;
    }
  }
}

// lint: no-alloc
void MappingTable::overlapping_into(fsim::FileId file, Offset off, Bytes len,
                                    std::vector<EntryId>& out) const {
  out.clear();
  const Offset end = off + len;

  auto it = by_file_.upper_bound(FileKey{file, off});
  if (it != by_file_.begin()) {
    auto prev = std::prev(it);
    if (prev->first.first == file) {
      const CacheEntry& e = slab_[slot_of(prev->second)].entry;
      // lint: alloc-ok (pooled lease: id_pool_ vectors keep their capacity across serves)
      if (e.file_end() > off) out.push_back(prev->second);
    }
  }
  for (; it != by_file_.end() && it->first.first == file &&
         it->first.second < end;
       ++it) {
    // lint: alloc-ok (pooled lease: id_pool_ vectors keep their capacity across serves)
    out.push_back(it->second);
  }
}

bool MappingTable::has_overlap(fsim::FileId file, Offset off,
                               Bytes len) const {
  const Offset end = off + len;
  auto it = by_file_.upper_bound(FileKey{file, off});
  if (it != by_file_.begin()) {
    auto prev = std::prev(it);
    if (prev->first.first == file) {
      const CacheEntry& e = slab_[slot_of(prev->second)].entry;
      if (e.file_end() > off) return true;
    }
  }
  return it != by_file_.end() && it->first.first == file &&
         it->first.second < end;
}

std::vector<LogSlice> MappingTable::coverage(fsim::FileId file, Offset off,
                                             Bytes len) const {
  std::vector<LogSlice> out;
  coverage_into(file, off, len, out);
  return out;
}

std::vector<EntryId> MappingTable::overlapping(fsim::FileId file, Offset off,
                                               Bytes len) const {
  std::vector<EntryId> out;
  overlapping_into(file, off, len, out);
  return out;
}

void MappingTable::trim(EntryId id, Offset off, Bytes len,
                        std::vector<std::pair<Offset, Bytes>>& freed) {
  const CacheEntry e = slab_[slot_of(id)].entry;
  const Offset cut_lo = std::max(off, e.file_off);
  const Offset cut_hi = std::min(off + len, e.file_end());
  if (cut_lo >= cut_hi) return;  // no intersection

  freed.emplace_back(e.log_off + (cut_lo - e.file_off), cut_hi - cut_lo);
  erase(id);

  if (cut_lo > e.file_off) {  // left remainder
    CacheEntry left = e;
    left.length = cut_lo - e.file_off;
    insert(left);
  }
  if (cut_hi < e.file_end()) {  // right remainder
    CacheEntry right = e;
    right.file_off = cut_hi;
    right.log_off = e.log_off + (cut_hi - e.file_off);
    right.length = e.file_end() - cut_hi;
    insert(right);
  }
}

EntryId MappingTable::lru_victim(CacheClass c) const {
  const ListHead& lru = lru_[idx(c)];
  return lru.head == kNil ? kNoEntry : slab_[lru.head].id;
}

// lint: no-alloc
void MappingTable::dirty_entries_into(Bytes max_bytes,
                                      std::vector<EntryId>& out) const {
  out.clear();
  // Walk only the intrusive dirty lists, then order by (file, offset) so a
  // batch is as contiguous as the dirty data allows — the write-back path
  // coalesces adjacent entries into single long disk writes ("as many long
  // sequential accesses as possible").
  dirty_scratch_.clear();
  for (int c = 0; c < kNumClasses; ++c) {
    for (std::uint32_t s = dirty_[c].head; s != kNil;
         s = slab_[s].link[kDirtyChain].next) {
      // lint: alloc-ok (member scratch: capacity reaches dirty-entry high-water mark once, then stays)
      dirty_scratch_.push_back(s);
    }
  }
  // The budget usually takes a small prefix of a large dirty set, so select
  // that prefix with a heap rather than sorting every entry: heapify in
  // place, then pop entries in order until the budget is spent.  No two
  // entries share a (file, offset), so this is exactly the sorted prefix.
  const auto later = [this](std::uint32_t a, std::uint32_t b) {
    const CacheEntry& ea = slab_[a].entry;
    const CacheEntry& eb = slab_[b].entry;
    if (ea.file != eb.file) return ea.file > eb.file;
    return ea.file_off > eb.file_off;
  };
  std::make_heap(dirty_scratch_.begin(), dirty_scratch_.end(), later);
  Bytes budget = max_bytes;
  for (auto end = dirty_scratch_.end(); end != dirty_scratch_.begin(); --end) {
    std::pop_heap(dirty_scratch_.begin(), end, later);
    const std::uint32_t s = *(end - 1);
    const CacheEntry& e = slab_[s].entry;
    if (budget - e.length < Bytes::zero() && !out.empty()) return;
    // lint: alloc-ok (pooled lease: id_pool_ vectors keep their capacity across serves)
    out.push_back(slab_[s].id);
    budget -= e.length;
    if (budget <= Bytes::zero()) return;
  }
}

std::vector<EntryId> MappingTable::dirty_entries(Bytes max_bytes) const {
  std::vector<EntryId> out;
  dirty_entries_into(max_bytes, out);
  return out;
}

// lint: no-alloc
void MappingTable::entries_in_log_range_into(Offset log_begin, Offset log_end,
                                             std::vector<EntryId>& out) const {
  out.clear();
  auto it = by_log_.upper_bound(log_begin);
  if (it != by_log_.begin()) {
    auto prev = std::prev(it);
    const CacheEntry& e = slab_[slot_of(prev->second)].entry;
    // lint: alloc-ok (pooled lease: id_pool_ vectors keep their capacity across serves)
    if (e.log_off + e.length > log_begin) out.push_back(prev->second);
  }
  for (; it != by_log_.end() && it->first < log_end; ++it)
    // lint: alloc-ok (pooled lease: id_pool_ vectors keep their capacity across serves)
    out.push_back(it->second);
}

std::vector<EntryId> MappingTable::entries_in_log_range(Offset log_begin,
                                                        Offset log_end) const {
  std::vector<EntryId> out;
  entries_in_log_range_into(log_begin, log_end, out);
  return out;
}

std::vector<EntryId> MappingTable::all_entries() const {
  std::vector<EntryId> out;
  out.reserve(entries_.size());
  for (const auto& [key, id] : by_file_) out.push_back(id);
  return out;
}

std::vector<EntryId> MappingTable::lru_order(CacheClass c) const {
  std::vector<EntryId> out;
  const ListHead& lru = lru_[idx(c)];
  out.reserve(lru.size);
  for (std::uint32_t s = lru.head; s != kNil; s = slab_[s].link[kLruChain].next)
    out.push_back(slab_[s].id);
  return out;
}

namespace {
constexpr const char* kTableMagic = "ibridge-mapping-table-v1";
}

void MappingTable::save(std::ostream& os) const {
  os << kTableMagic << ' ' << entry_count() << '\n';
  // LRU order per class: load() re-inserts in stream order, which appends
  // to the back of each class list — front stays LRU, back stays MRU.
  // ret_ms is stored as its IEEE-754 bit pattern for an exact round trip.
  for (int c = 0; c < kNumClasses; ++c) {
    for (std::uint32_t s = lru_[c].head; s != kNil;
         s = slab_[s].link[kLruChain].next) {
      const CacheEntry& e = slab_[s].entry;
      os << e.file << ' ' << e.file_off.value() << ' ' << e.length.count()
         << ' ' << e.log_off.value() << ' ' << (e.dirty ? 1 : 0) << ' ' << c
         << ' ' << std::bit_cast<std::uint64_t>(e.ret_ms) << '\n';
    }
  }
}

bool MappingTable::load(std::istream& is) {
  assert(entries_.empty() && "load into a non-empty table");
  std::string magic;
  std::size_t n = 0;
  if (!(is >> magic >> n) || magic != kTableMagic) return false;
  for (std::size_t i = 0; i < n; ++i) {
    CacheEntry e;
    std::int64_t file_off = 0, length = 0, log_off = 0;
    int dirty = 0, klass = 0;
    std::uint64_t ret_bits = 0;
    if (!(is >> e.file >> file_off >> length >> log_off >> dirty >> klass >>
          ret_bits)) {
      return false;
    }
    if (length <= 0 || log_off < 0 || klass < 0 || klass >= kNumClasses ||
        (dirty != 0 && dirty != 1)) {
      return false;
    }
    e.file_off = Offset{file_off};
    e.length = Bytes{length};
    e.log_off = Offset{log_off};
    e.dirty = dirty != 0;
    e.klass = static_cast<CacheClass>(klass);
    e.ret_ms = std::bit_cast<double>(ret_bits);
    if (has_overlap(e.file, e.file_off, e.length)) return false;
    insert(e);
  }
  return true;
}

void MappingTable::index_insert(EntryId id, const CacheEntry& e) {
  auto [it, inserted] = by_file_.emplace(FileKey{e.file, e.file_off}, id);
  (void)it;
  assert(inserted && "two entries with identical start offset");
  auto [lit, linserted] = by_log_.emplace(e.log_off, id);
  (void)lit;
  assert(linserted && "two entries with identical log offset");
}

void MappingTable::index_erase(EntryId id, const CacheEntry& e) {
  auto log_it = by_log_.find(e.log_off);
  assert(log_it != by_log_.end() && log_it->second == id);
  by_log_.erase(log_it);
  auto it = by_file_.find(FileKey{e.file, e.file_off});
  assert(it != by_file_.end() && it->second == id);
  (void)id;
  by_file_.erase(it);
}

void MappingTable::account_add(const CacheEntry& e) {
  bytes_[idx(e.klass)] += e.length;
  ret_sum_[idx(e.klass)] += e.ret_ms;
  if (e.dirty) dirty_bytes_ += e.length;
}

void MappingTable::account_remove(const CacheEntry& e) {
  bytes_[idx(e.klass)] -= e.length;
  ret_sum_[idx(e.klass)] -= e.ret_ms;
  if (e.dirty) dirty_bytes_ -= e.length;
}

}  // namespace ibridge::core
