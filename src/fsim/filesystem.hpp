// Local file system on a simulated block device (the ext2 stand-in).
//
// Each data server in PVFS2 stores its share of every striped file as a
// local "datafile" managed by the server-local file system.  What iBridge's
// analysis depends on is the mapping from file offsets to disk LBNs: a
// contiguous server datafile turns server-sequential access into
// disk-sequential access, and unaligned fragments into small block requests.
//
// LocalFileSystem provides:
//   * extent-based allocation (append-frontier with a free list — files
//     preallocated in one step are contiguous, late growth can fragment);
//   * map(): file byte range -> device sector ranges (sector-granular
//     rounding, as the kernel block layer would issue);
//   * coroutine read()/write() that submit the mapped block requests to the
//     owning device and await completion;
//   * an optional byte-accurate backing store (DataMode::kVerify) so tests
//     can check end-to-end data integrity through every cache layer.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/buffer_pool.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "storage/block.hpp"

namespace ibridge::fsim {

using FileId = std::uint32_t;
inline constexpr FileId kInvalidFile = 0;

/// Whether file contents are actually stored (tests) or only timed (benches).
enum class DataMode { kTimingOnly, kVerify };

/// A contiguous run of sectors backing part of a file.
struct Extent {
  std::int64_t file_sector;  ///< first file-relative sector this extent backs
  std::int64_t lbn;          ///< first device sector
  std::int64_t sectors;      ///< length
};

/// One piece of a mapped byte range.
struct MappedRange {
  std::int64_t lbn;      ///< device sector of the piece's first sector
  std::int64_t sectors;  ///< sector-rounded length
};

/// Sector-range allocator with an append frontier and first-fit free list.
class ExtentAllocator {
 public:
  explicit ExtentAllocator(std::int64_t total_sectors)
      : total_(total_sectors) {}

  /// Allocate `n` contiguous sectors; returns first LBN or -1 if full.
  std::int64_t allocate(std::int64_t n);
  void release(std::int64_t lbn, std::int64_t n);

  std::int64_t free_sectors() const;
  std::int64_t total_sectors() const { return total_; }

 private:
  std::int64_t total_;
  std::int64_t frontier_ = 0;
  std::map<std::int64_t, std::int64_t> free_list_;  // lbn -> length
};

class LocalFileSystem;

/// Per-file metadata: size and extent list.
class LocalFile {
 public:
  const std::string& name() const { return name_; }
  std::int64_t size() const { return size_bytes_; }
  const std::vector<Extent>& extents() const { return extents_; }

  /// Map a byte range to device sector ranges (one entry per extent piece,
  /// adjacent pieces coalesced).  The range must be inside the file.
  std::vector<MappedRange> map(std::int64_t offset, std::int64_t length) const;

  /// Allocation-free variant: clear `out` and fill it with the mapped
  /// pieces, reusing its capacity.  read()/write() feed this pooled vectors
  /// so the per-request hot path stays off the allocator.
  void map_into(std::int64_t offset, std::int64_t length,
                std::vector<MappedRange>& out) const;

  /// True if the whole file is one contiguous extent.
  bool contiguous() const { return extents_.size() <= 1; }

 private:
  friend class LocalFileSystem;
  std::string name_;
  std::int64_t size_bytes_ = 0;
  std::int64_t allocated_sectors_ = 0;
  std::vector<Extent> extents_;
};

class LocalFileSystem {
 public:
  LocalFileSystem(sim::Simulator& sim, storage::BlockDevice& dev,
                  DataMode mode = DataMode::kTimingOnly)
      : sim_(sim), dev_(dev), mode_(mode),
        alloc_(dev.capacity_sectors()) {}

  /// OS page-granularity read-modify-write: when > 0, a write whose first
  /// or last page is only partially covered first reads that page (the
  /// kernel must fill the rest of the page before marking it dirty).  This
  /// is what makes sub-page writes to a file system — on disk OR SSD —
  /// expensive, and what iBridge's packed log file sidesteps.  Off by
  /// default; data servers enable it for their datafile systems.
  void set_rmw_page_bytes(std::int64_t bytes) { rmw_page_ = bytes; }
  std::int64_t rmw_page_bytes() const { return rmw_page_; }

  /// Create a file, optionally preallocating `prealloc_bytes` (preallocation
  /// in one step yields a contiguous file).  Returns kInvalidFile on ENOSPC.
  FileId create(std::string name, std::int64_t prealloc_bytes = 0);

  /// Extend `id` so that [0, new_size) is allocated.  False on ENOSPC.
  bool truncate(FileId id, std::int64_t new_size);

  void remove(FileId id);

  LocalFile& file(FileId id);
  const LocalFile& file(FileId id) const;
  FileId lookup(const std::string& name) const;

  storage::BlockDevice& device() { return dev_; }
  DataMode data_mode() const { return mode_; }

  /// Coroutine: read [offset, offset+length) of the file.  Submits one block
  /// request per mapped piece, awaits all, returns the elapsed time.  In
  /// kVerify mode, fills `out` (may be empty in kTimingOnly mode).  Allocated
  /// but unwritten space reads as zeroes, like a sparse file.  Throws
  /// std::out_of_range, before any I/O, unless the range is non-empty and
  /// inside the file's allocated space.
  sim::Task<sim::SimTime> read(FileId id, std::int64_t offset,
                               std::int64_t length, std::span<std::byte> out,
                               int tag = 0);

  /// Coroutine: write [offset, offset+length); extends the file as needed.
  sim::Task<sim::SimTime> write(FileId id, std::int64_t offset,
                                std::int64_t length,
                                std::span<const std::byte> in, int tag = 0);

  // Direct byte-store access, used by cache layers that move data between
  // devices without a full coroutine round trip.
  void poke_bytes(FileId id, std::int64_t offset,
                  std::span<const std::byte> in);
  void peek_bytes(FileId id, std::int64_t offset,
                  std::span<std::byte> out) const;

 private:
  bool ensure_allocated(LocalFile& f, std::int64_t size_bytes);
  sim::Task<sim::SimTime> read_allocated(LocalFile& f, FileId id,
                                         std::int64_t offset,
                                         std::int64_t length,
                                         std::span<std::byte> out, int tag);

  sim::Simulator& sim_;
  storage::BlockDevice& dev_;
  DataMode mode_;
  std::int64_t rmw_page_ = 0;
  ExtentAllocator alloc_;
  // Ordered maps so any iteration (extent scans, verify-mode dumps) visits
  // files and chunks in a deterministic order.
  std::map<FileId, LocalFile> files_;
  std::map<std::string, FileId> by_name_;
  // kVerify backing store: per file, 4 KiB chunks.
  static constexpr std::int64_t kChunk = 4096;
  std::map<FileId, std::map<std::int64_t, std::vector<std::byte>>> data_;
  FileId next_id_ = 1;
  // Per-request scratch vectors (mapped pieces, completion futures) recycle
  // through these pools: steady-state reads/writes do zero heap allocation
  // even in timing-only mode (see docs/PERF.md).
  sim::VectorPool<MappedRange> map_pool_;
  sim::VectorPool<sim::SimFuture<storage::BlockCompletion>> fut_pool_;
};

}  // namespace ibridge::fsim
