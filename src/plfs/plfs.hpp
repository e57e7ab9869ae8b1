// PLFS-style log-structured checkpoint middleware (Bent et al., SC'09) —
// a related-work baseline the paper discusses.
//
// Instead of writing a shared file in place, every rank appends its writes
// to a private log file (striped over the same data servers) and records
// (logical offset, length, log position) in an index.  Writes therefore
// always reach the servers as large sequential appends — unaligned access
// "disappears" at write time.  The price is paid on reads: a logical range
// may be scattered over many ranks' logs in write order, so read locality
// is whatever the write pattern was.  The paper's critique — "spatial
// locality is largely lost in the log file system" — is exactly what
// `bench_paper plfs` measures.
//
// Index semantics: last write wins (records carry a global sequence
// number); lookups flatten the per-rank indices into the newest mapping for
// every byte.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "mpiio/mpi.hpp"

namespace ibridge::plfs {

struct PlfsConfig {
  /// Bytes charged per index record appended (PLFS writes index files
  /// alongside data logs).
  std::int64_t index_record_bytes = 48;
  /// Preallocated log capacity per rank.
  std::int64_t log_bytes_per_rank = 512LL << 20;
};

/// One logical shared file backed by per-rank logs + indices.
class PlfsFile {
 public:
  /// Creates `nranks` log files on the cluster ("<name>.log.<r>") plus an
  /// index file per rank ("<name>.idx.<r>").
  PlfsFile(cluster::Cluster& cluster, std::string name, int nranks,
           PlfsConfig cfg = {});

  /// Append-write: rank's payload goes to the tail of its own log; the
  /// mapping is recorded in the index.
  sim::Task<sim::SimTime> write_at(int rank, std::int64_t offset,
                                   std::int64_t length);

  /// Read: resolve [offset, offset+length) against the flattened index and
  /// fetch every piece from the owning logs.  Unmapped bytes read as holes
  /// (charged as a read of the backing region of log 0 would be — we simply
  /// skip them, like PLFS returning zeros).
  sim::Task<sim::SimTime> read_at(int rank, std::int64_t offset,
                                  std::int64_t length);

  /// Number of distinct log pieces a read of the range would touch — the
  /// scatter factor that kills read locality.
  std::size_t scatter(std::int64_t offset, std::int64_t length) const;

  std::size_t index_entries() const { return index_.size(); }
  std::int64_t logical_size() const { return logical_size_; }

 private:
  struct Mapping {
    int rank;
    std::int64_t log_off;
    std::uint64_t seq;
  };

  /// Record a new mapping, splitting/overwriting older overlaps
  /// (last-write-wins flattening).
  void index_insert(std::int64_t offset, std::int64_t length, int rank,
                    std::int64_t log_off);

  struct Piece {
    std::int64_t offset, length;  // logical
    int rank;                     // -1 = hole
    std::int64_t log_off;
  };
  std::vector<Piece> resolve(std::int64_t offset, std::int64_t length) const;

  cluster::Cluster& cluster_;
  PlfsConfig cfg_;
  std::vector<pvfs::FileHandle> logs_;
  std::vector<pvfs::FileHandle> index_files_;
  static constexpr std::int64_t kIndexFlushBytes = 4096;
  std::vector<std::int64_t> log_tail_;
  std::vector<std::int64_t> index_tail_;
  std::vector<std::int64_t> index_pending_;  // buffered index records
  // Flattened logical index: start offset -> (length via next key) mapping.
  // Key = logical start; value covers [key, key+length).
  struct Extent {
    std::int64_t length;
    Mapping map;
  };
  std::map<std::int64_t, Extent> index_;
  std::int64_t logical_size_ = 0;
  std::uint64_t next_seq_ = 1;
};

}  // namespace ibridge::plfs
