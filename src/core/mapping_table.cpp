#include "core/mapping_table.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <istream>
#include <ostream>
#include <string>

namespace ibridge::core {

void MappingTable::reserve(std::size_t entries) { slab_.reserve(entries); }

std::uint32_t MappingTable::slot_of(EntryId id) const {
  assert(contains(id));
  return static_cast<std::uint32_t>(id);
}

std::uint32_t MappingTable::alloc_slot() {
  if (free_head_ != kNil) {
    const std::uint32_t s = free_head_;
    free_head_ = slab_[s].next;
    return s;
  }
  slab_.emplace_back();
  return static_cast<std::uint32_t>(slab_.size() - 1);
}

void MappingTable::free_slot(std::uint32_t s) {
  Slot& slot = slab_[s];
  slot.live = false;
  // Retire every id this slot has handed out; generation 0 is skipped so no
  // id ever equals kNoEntry.
  if (++slot.gen == 0) slot.gen = 1;
  slot.next = free_head_;
  free_head_ = s;
}

void MappingTable::list_push_back(ListHead& h, std::uint32_t s) {
  Slot& slot = slab_[s];
  slot.prev = h.tail;
  slot.next = kNil;
  if (h.tail != kNil) {
    slab_[h.tail].next = s;
  } else {
    h.head = s;
  }
  h.tail = s;
  ++h.size;
}

void MappingTable::list_unlink(ListHead& h, std::uint32_t s) {
  Slot& slot = slab_[s];
  if (slot.prev != kNil) {
    slab_[slot.prev].next = slot.next;
  } else {
    h.head = slot.next;
  }
  if (slot.next != kNil) {
    slab_[slot.next].prev = slot.prev;
  } else {
    h.tail = slot.prev;
  }
  slot.prev = slot.next = kNil;
  --h.size;
}

EntryId MappingTable::insert(CacheEntry e) {
  assert(e.length > Bytes::zero());
  assert(!has_overlap(e.file, e.file_off, e.length) &&
         "insert over existing cached range");
  const std::uint32_t s = alloc_slot();
  Slot& slot = slab_[s];
  slot.entry = e;
  slot.live = true;
  list_push_back(lru_[idx(e.klass)], s);
  account_add(e);
  [[maybe_unused]] const bool fresh = by_file_.insert({e.file, e.file_off}, s);
  assert(fresh && "two entries with identical start offset");
  [[maybe_unused]] const bool fresh_log = by_log_.insert(e.log_off, s);
  assert(fresh_log && "two entries with identical log offset");
  if (e.dirty) dirty_.insert({e.file, e.file_off}, s);
  return id_of(s);
}

CacheEntry MappingTable::erase(EntryId id) {
  const std::uint32_t s = slot_of(id);
  const CacheEntry e = slab_[s].entry;
  list_unlink(lru_[idx(e.klass)], s);
  account_remove(e);
  by_file_.erase({e.file, e.file_off});
  by_log_.erase(e.log_off);
  if (e.dirty) dirty_.erase({e.file, e.file_off});
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
    dirty_.erase({e.file, e.file_off});
  }
}

void MappingTable::mark_dirty(EntryId id) {
  const std::uint32_t s = slot_of(id);
  CacheEntry& e = slab_[s].entry;
  if (!e.dirty) {
    e.dirty = true;
    dirty_bytes_ += e.length;
    dirty_.insert({e.file, e.file_off}, s);
  }
}

void MappingTable::touch(EntryId id) {
  const std::uint32_t s = slot_of(id);
  ListHead& lru = lru_[idx(slab_[s].entry.klass)];
  if (lru.tail == s) return;  // already MRU
  list_unlink(lru, s);
  list_push_back(lru, s);
}

void MappingTable::coverage_into(fsim::FileId file, Offset off, Bytes len,
                                 std::vector<LogSlice>& out) const {
  out.clear();
  const Offset end = off + len;

  Offset pos = off;
  // Find the entry containing `pos`: the last entry of `file` starting at
  // or before it.
  auto it = by_file_.upper_bound(FileKey{file, pos});
  if (it == by_file_.begin()) return;
  it = by_file_.prev(it);
  if (by_file_.key(it).first != file) return;
  while (pos < end) {
    const std::uint32_t s = by_file_.value(it);
    const CacheEntry& e = slab_[s].entry;
    if (pos < e.file_off || pos >= e.file_end()) {  // gap
      out.clear();
      return;
    }
    const Bytes take = std::min(end, e.file_end()) - pos;
    out.push_back({id_of(s), pos, e.log_off + (pos - e.file_off), take});
    pos += take;
    if (pos >= end) break;
    it = by_file_.next(it);
    if (it == by_file_.end() || by_file_.key(it).first != file) {  // ran out
      out.clear();
      return;
    }
  }
}

void MappingTable::overlapping_into(fsim::FileId file, Offset off, Bytes len,
                                    std::vector<EntryId>& out) const {
  out.clear();
  const Offset end = off + len;

  auto it = by_file_.upper_bound(FileKey{file, off});
  if (it != by_file_.begin()) {
    const auto prev = by_file_.prev(it);
    if (by_file_.key(prev).first == file) {
      const std::uint32_t s = by_file_.value(prev);
      if (slab_[s].entry.file_end() > off) out.push_back(id_of(s));
    }
  }
  for (; it != by_file_.end() && by_file_.key(it).first == file &&
         by_file_.key(it).second < end;
       it = by_file_.next(it)) {
    out.push_back(id_of(by_file_.value(it)));
  }
}

bool MappingTable::has_overlap(fsim::FileId file, Offset off,
                               Bytes len) const {
  const Offset end = off + len;
  auto it = by_file_.upper_bound(FileKey{file, off});
  if (it != by_file_.begin()) {
    const auto prev = by_file_.prev(it);
    if (by_file_.key(prev).first == file &&
        slab_[by_file_.value(prev)].entry.file_end() > off) {
      return true;
    }
  }
  return it != by_file_.end() && by_file_.key(it).first == file &&
         by_file_.key(it).second < end;
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
  return lru.head == kNil ? kNoEntry : id_of(lru.head);
}

void MappingTable::dirty_entries_into(Bytes max_bytes,
                                      std::vector<EntryId>& out) const {
  out.clear();
  // The dirty index is in (file, offset) order, so a batch is as contiguous
  // as the dirty data allows — the write-back path coalesces adjacent
  // entries into single long disk writes ("as many long sequential accesses
  // as possible") — and the walk stops where the budget does.
  Bytes budget = max_bytes;
  for (auto it = dirty_.begin(); it != dirty_.end(); it = dirty_.next(it)) {
    const std::uint32_t s = dirty_.value(it);
    const CacheEntry& e = slab_[s].entry;
    if (budget - e.length < Bytes::zero() && !out.empty()) return;
    out.push_back(id_of(s));
    budget -= e.length;
    if (budget <= Bytes::zero()) return;
  }
}

std::vector<EntryId> MappingTable::dirty_entries(Bytes max_bytes) const {
  std::vector<EntryId> out;
  dirty_entries_into(max_bytes, out);
  return out;
}

void MappingTable::entries_in_log_range_into(Offset log_begin, Offset log_end,
                                             std::vector<EntryId>& out) const {
  out.clear();
  auto it = by_log_.upper_bound(log_begin);
  if (it != by_log_.begin()) {
    const std::uint32_t s = by_log_.value(by_log_.prev(it));
    const CacheEntry& e = slab_[s].entry;
    if (e.log_off + e.length > log_begin) out.push_back(id_of(s));
  }
  for (; it != by_log_.end() && by_log_.key(it) < log_end;
       it = by_log_.next(it)) {
    out.push_back(id_of(by_log_.value(it)));
  }
}

std::vector<EntryId> MappingTable::entries_in_log_range(Offset log_begin,
                                                        Offset log_end) const {
  std::vector<EntryId> out;
  entries_in_log_range_into(log_begin, log_end, out);
  return out;
}

std::vector<EntryId> MappingTable::all_entries() const {
  std::vector<EntryId> out;
  out.reserve(by_file_.size());
  for (auto it = by_file_.begin(); it != by_file_.end();
       it = by_file_.next(it)) {
    out.push_back(id_of(by_file_.value(it)));
  }
  return out;
}

std::vector<EntryId> MappingTable::lru_order(CacheClass c) const {
  std::vector<EntryId> out;
  const ListHead& lru = lru_[idx(c)];
  out.reserve(lru.size);
  for (std::uint32_t s = lru.head; s != kNil; s = slab_[s].next)
    out.push_back(id_of(s));
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
    for (std::uint32_t s = lru_[c].head; s != kNil; s = slab_[s].next) {
      const CacheEntry& e = slab_[s].entry;
      os << e.file << ' ' << e.file_off.value() << ' ' << e.length.count()
         << ' ' << e.log_off.value() << ' ' << (e.dirty ? 1 : 0) << ' ' << c
         << ' ' << std::bit_cast<std::uint64_t>(e.ret_ms) << '\n';
    }
  }
}

bool MappingTable::load(std::istream& is) {
  assert(entry_count() == 0 && "load into a non-empty table");
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
