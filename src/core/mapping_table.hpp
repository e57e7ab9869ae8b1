// The iBridge mapping table.
//
// Records which byte ranges of which server-local files are cached in the
// SSD log, whether each range is dirty (newer than the disk copy) or clean,
// which request class it belongs to (regular random vs fragment), and the
// return value recorded at admission (used for dynamic partitioning).  The
// paper persists this table on the SSD; the simulator charges that cost in
// IBridgeCache::charge_mapping_update (64 B per entry update).
//
// Supported queries:
//   * coverage(): is a byte range fully cached (possibly tiled by several
//     contiguous entries)?  -> log slices for reading;
//   * overlapping(): all entries intersecting a range (for invalidation);
//   * trim(): cut a byte range out of an entry (splitting it when the cut is
//     interior), keeping the untouched parts cached without moving data;
//   * per-class LRU with byte/return accounting for the partition logic.
//
// Layout: entries live in a dense slab of slots recycled through a free
// list.  An EntryId is a generational slot handle (generation << 32 | slot;
// a slot's generation starts at 1 and is bumped each time the slot is
// freed), so contains/get/touch/mark_*/erase index the slab directly and a
// stale id never aliases the slot's next tenant.  Each slot carries
// intrusive prev/next indices for its class's LRU list, so touch, insert,
// erase and lru_victim never allocate.  Three SortedBlocks indexes map keys
// to slots: (file, offset) over every entry, log offset over every entry,
// and (file, offset) over dirty entries only, so dirty_entries() walks just
// the prefix it returns.  Their block storage grows on demand and is
// recycled through a free list.  The *_into query variants fill
// caller-owned vectors (pool leases in IBridgeCache), completing the
// allocation-free serve path.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <utility>
#include <vector>

#include "core/sorted_blocks.hpp"
#include "fsim/filesystem.hpp"
#include "sim/units.hpp"

namespace ibridge::core {

using sim::Bytes;
using sim::Offset;
using sim::ServerId;

enum class CacheClass : std::uint8_t { kRegular = 0, kFragment = 1 };
inline constexpr int kNumClasses = 2;

inline const char* to_string(CacheClass c) {
  return c == CacheClass::kRegular ? "regular" : "fragment";
}

/// generation << 32 | slot (see the layout note above).  Generations start
/// at 1, so no live id equals kNoEntry.
using EntryId = std::uint64_t;
inline constexpr EntryId kNoEntry = 0;

struct CacheEntry {
  fsim::FileId file = fsim::kInvalidFile;
  Offset file_off;
  Bytes length;
  Offset log_off;  ///< byte position within the SSD log file
  bool dirty = false;
  CacheClass klass = CacheClass::kRegular;
  double ret_ms = 0.0;

  Offset file_end() const { return file_off + length; }
};

/// A piece of a lookup result: `log_off`..`log_off+length` in the SSD log
/// holds file bytes `file_off`..`file_off+length`.
struct LogSlice {
  EntryId entry = kNoEntry;
  Offset file_off;
  Offset log_off;
  Bytes length;
};

class MappingTable {
 public:
  /// Pre-size the slab for `entries` live entries so steady-state
  /// insert/erase churn below that mark never grows it.  The indexes'
  /// block storage is not reserved: it grows with the live set and
  /// recycles emptied blocks.  Callers size this from the SSD log capacity:
  /// capacity / smallest admitted range is a hard ceiling on live entries.
  void reserve(std::size_t entries);

  /// Insert a new entry covering a range with NO existing overlap (callers
  /// invalidate first).  Returns its id.
  EntryId insert(CacheEntry e);

  /// Remove an entry entirely; returns it for log-space release.
  CacheEntry erase(EntryId id);

  const CacheEntry& get(EntryId id) const;
  bool contains(EntryId id) const {
    const auto s = static_cast<std::uint32_t>(id);
    return s < slab_.size() && slab_[s].live &&
           slab_[s].gen == static_cast<std::uint32_t>(id >> 32);
  }

  /// Mark an entry clean (after write-back).
  void mark_clean(EntryId id);
  void mark_dirty(EntryId id);

  /// Move an entry to the MRU end of its class list.
  void touch(EntryId id);

  /// Full-coverage lookup: fills `out` (cleared first) with slices in
  /// file-offset order iff [off, off+len) of `file` is entirely cached;
  /// leaves it empty otherwise.
  void coverage_into(fsim::FileId file, Offset off, Bytes len,
                     std::vector<LogSlice>& out) const;

  /// All entries intersecting [off, off+len), into `out` (cleared first).
  void overlapping_into(fsim::FileId file, Offset off, Bytes len,
                        std::vector<EntryId>& out) const;

  /// Does any entry intersect [off, off+len)?
  bool has_overlap(fsim::FileId file, Offset off, Bytes len) const;

  /// Allocating conveniences over the *_into variants (tests, oracle code).
  std::vector<LogSlice> coverage(fsim::FileId file, Offset off,
                                 Bytes len) const;
  std::vector<EntryId> overlapping(fsim::FileId file, Offset off,
                                   Bytes len) const;

  /// Remove the intersection of entry `id` with [off, off+len).  The parts
  /// of the entry outside the range stay cached (an interior cut splits the
  /// entry in two; the new piece inherits class/dirty/ret).  Each
  /// (log_off, length) pair freed is appended to `freed`.
  void trim(EntryId id, Offset off, Bytes len,
            std::vector<std::pair<Offset, Bytes>>& freed);

  /// Least-recently-used entry of a class (kNoEntry if none).
  EntryId lru_victim(CacheClass c) const;

  /// All entries whose log ranges intersect [log_begin, log_end) — used by
  /// the log cleaner to empty a victim segment.
  void entries_in_log_range_into(Offset log_begin, Offset log_end,
                                 std::vector<EntryId>& out) const;
  std::vector<EntryId> entries_in_log_range(Offset log_begin,
                                            Offset log_end) const;

  /// Dirty entries in file/offset order up to `max_bytes` total (used by
  /// the write-back daemon to build coalescable batches).  Walks only the
  /// returned prefix of the dirty index, never clean entries.
  void dirty_entries_into(Bytes max_bytes, std::vector<EntryId>& out) const;
  std::vector<EntryId> dirty_entries(Bytes max_bytes) const;

  /// Every entry id, in file/offset order (used by the SimCheck oracle to
  /// audit the table exhaustively; not on any hot path).
  std::vector<EntryId> all_entries() const;

  /// The LRU list of a class, front (LRU) to back (MRU).
  std::vector<EntryId> lru_order(CacheClass c) const;

  /// Persist the table to a stream (the paper keeps the mapping table on
  /// the SSD so cached data survives restarts).  Entries are written in LRU
  /// order per class so load() reconstructs recency exactly; ret_ms is
  /// written as its bit pattern so the round trip is bit-exact.
  void save(std::ostream& os) const;

  /// Reload a table persisted by save() into *this (must be empty).
  /// Returns false (leaving a partially loaded table) on malformed input.
  bool load(std::istream& is);

  Bytes bytes_cached(CacheClass c) const { return bytes_[idx(c)]; }
  Bytes bytes_cached() const { return bytes_[0] + bytes_[1]; }
  Bytes dirty_bytes() const { return dirty_bytes_; }
  std::size_t entry_count() const { return lru_[0].size + lru_[1].size; }
  std::size_t entry_count(CacheClass c) const { return lru_[idx(c)].size; }
  double return_sum(CacheClass c) const { return ret_sum_[idx(c)]; }
  double return_avg(CacheClass c) const {
    const auto n = lru_[idx(c)].size;
    return n ? ret_sum_[idx(c)] / static_cast<double>(n) : 0.0;
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Slot {
    CacheEntry entry;
    std::uint32_t gen = 1;  // generation of the id held now or handed out next
    bool live = false;
    std::uint32_t prev = kNil;  // LRU chain
    std::uint32_t next = kNil;  // LRU chain; the free-list link while free
  };

  struct ListHead {
    std::uint32_t head = kNil;
    std::uint32_t tail = kNil;
    std::size_t size = 0;
  };

  // Entries of a file never overlap, so (file, first offset) orders them
  // uniquely; log ranges never overlap either.
  using FileKey = std::pair<fsim::FileId, Offset>;

  static int idx(CacheClass c) { return static_cast<int>(c); }

  EntryId id_of(std::uint32_t s) const {
    return (EntryId{slab_[s].gen} << 32) | s;
  }
  std::uint32_t slot_of(EntryId id) const;
  std::uint32_t alloc_slot();
  void free_slot(std::uint32_t s);
  void list_push_back(ListHead& h, std::uint32_t s);
  void list_unlink(ListHead& h, std::uint32_t s);

  void account_add(const CacheEntry& e);
  void account_remove(const CacheEntry& e);

  std::vector<Slot> slab_;
  std::uint32_t free_head_ = kNil;
  SortedBlocks<FileKey> by_file_;
  SortedBlocks<Offset> by_log_;
  SortedBlocks<FileKey> dirty_;  // dirty entries only
  ListHead lru_[kNumClasses];    // front = LRU, back = MRU
  Bytes bytes_[kNumClasses];
  double ret_sum_[kNumClasses] = {0.0, 0.0};
  Bytes dirty_bytes_;
};

}  // namespace ibridge::core
