// IBridgeCache — the server-side heart of iBridge.
//
// One instance lives on each data server, sitting between the pvfs2-server
// request handler and the server's local disk file system.  For every
// arriving request it:
//
//   1. classifies it (fragment flag from the client, regular-random by size),
//   2. estimates the return of SSD redirection (Equations 1-3) using the
//      profiled disk model and the broadcast T-value board,
//   3. serves it from the SSD cache (log-structured writes, mapping-table
//      reads) when the return is positive, from the disk otherwise,
//   4. maintains the dynamic class partition, per-class LRU eviction, and
//      the idle-time write-back of dirty cached data to the disk.
#pragma once

#include <coroutine>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/mapping_table.hpp"
#include "core/observer.hpp"
#include "core/partition.hpp"
#include "core/return_estimator.hpp"
#include "core/service_time.hpp"
#include "core/ssd_log.hpp"
#include "fsim/filesystem.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/buffer_pool.hpp"
#include "sim/sync.hpp"
#include "sim/units.hpp"
#include "stats/histogram.hpp"

namespace ibridge::core {

/// A request as seen by a data server (after decomposition + tagging).
struct CacheRequest {
  storage::IoDirection dir = storage::IoDirection::kRead;
  fsim::FileId file = fsim::kInvalidFile;  ///< server-local datafile
  Offset offset;                           ///< within the datafile
  Bytes length;
  bool fragment = false;
  SiblingSet siblings;  ///< sibling sub-requests' servers, O(1) descriptor
  int tag = 0;                     ///< issuing process (scheduler anticipation)
  obs::RequestId trace_request = 0;  ///< owning traced client request (0 = off)
  obs::SpanId trace_parent = 0;      ///< span to nest server-side spans under
};

struct ServeResult {
  bool ssd = false;       ///< payload served by the SSD
  bool boosted = false;   ///< Equation (3) bonus participated in admission
  sim::SimTime elapsed;
};

/// Operation counters exposed to benchmarks and tests.
struct CacheStats {
  Bytes ssd_bytes_served;   ///< payload bytes served by the SSD
  Bytes disk_bytes_served;  ///< payload bytes served by the disk
  std::uint64_t read_hits = 0;
  std::uint64_t read_misses = 0;
  std::uint64_t write_admits = 0;
  std::uint64_t write_disk = 0;
  std::uint64_t stages = 0;       ///< read-miss copies into the cache
  std::uint64_t evictions = 0;
  std::uint64_t writebacks = 0;   ///< dirty entries flushed to disk
  std::uint64_t boosts = 0;       ///< Eq. (3) bonuses applied
  std::uint64_t cleanings = 0;    ///< log segments forcibly emptied
  std::uint64_t admit_by_class[kNumClasses] = {0, 0};
  Bytes writeback_bytes;          ///< dirty payload flushed back to the disk
  /// Distribution of Eq. (1-3) return estimates (ms) across served requests.
  stats::Histogram ret_estimate_ms;
};

class IBridgeCache {
 public:
  /// `disk_fs` holds the server's datafiles; `ssd_fs` is the file system on
  /// the companion SSD (the cache creates its log file there); `profile` is
  /// the offline-learned seek curve of the disk.
  IBridgeCache(sim::Simulator& sim, IBridgeConfig cfg, ServerId self,
               fsim::LocalFileSystem& disk_fs, fsim::LocalFileSystem& ssd_fs,
               storage::SeekProfile profile);

  IBridgeCache(const IBridgeCache&) = delete;
  IBridgeCache& operator=(const IBridgeCache&) = delete;

  /// Spawn the write-back daemon.  Call once after construction.
  void start();
  /// Stop the daemon (pending wake-ups become no-ops).
  void stop();

  /// Serve one request.  For writes, `wdata` carries the payload (may be
  /// empty in timing-only mode); for reads, `rdata` receives it.
  sim::Task<ServeResult> serve(CacheRequest r, std::span<const std::byte> wdata,
                               std::span<std::byte> rdata);

  /// Flush every dirty cached byte back to the disk, sorted by disk
  /// location (program-exit accounting: the paper includes this time).
  sim::Task<> drain();

  /// Flush up to `budget` dirty bytes (oldest-dirty first), yielding to
  /// foreground traffic.  The degraded-mode drain after a crash recovery
  /// trickles the recovered dirty data out through this.
  sim::Task<> flush_dirty(Bytes budget);

  /// Rebuild the cache from a mapping-table image previously written by
  /// table().save() — the crash-recovery path, run cluster-wide by the
  /// fault engine.  Requires quiescence (daemon stopped, no requests in
  /// flight).  Drops all current entries, reloads the table, and rebuilds
  /// the SSD log's segment accounting from the recovered entries.  Returns
  /// false (leaving the cache empty) when the image is malformed.
  bool recover(std::istream& in);

  /// True when no background work (write-back daemon, staging, eviction)
  /// is in flight.  The fault engine polls this to find a crash-consistent
  /// quiescent point.
  bool background_idle() const { return background_.all_finished(); }

  /// This server's current decayed average disk service time T (ms).
  double current_t() const { return stm_.t(); }

  /// Install the latest broadcast of all servers' T values (a copy into
  /// the existing board, which allocates only when the board grows).
  void set_board(const TBoard& board) { board_ = board; }
  const TBoard& board() const { return board_; }

  const CacheStats& stats() const { return stats_; }
  const MappingTable& table() const { return table_; }
  const SsdLog& log() const { return log_; }
  const IBridgeConfig& config() const { return cfg_; }
  const ServiceTimeModel& service_model() const { return stm_; }
  const PartitionController& partition() const { return partition_; }
  const sim::Simulator& simulator() const { return sim_; }
  Bytes cached_bytes() const { return table_.bytes_cached(); }
  /// Regions currently tracked by the kHotBlock heat map (tests assert the
  /// hot_block_max_regions bound holds under long workloads).
  std::size_t region_heat_regions() const { return region_heat_.size(); }

  /// Install a SimCheck observer (nullptr to detach).  Invoked after every
  /// state-changing cache step; never installed on production paths.
  void set_observer(CacheObserver* obs) { observer_ = obs; }

  /// Install a write-back crash gate (nullptr to detach).  Consulted at the
  /// flush_batch phase boundaries; only src/fault/'s engine installs one.
  void set_writeback_gate(WritebackGate* gate) { writeback_gate_ = gate; }

  /// Attach a TraceSession (nullptr to detach).  Foreground serves nest
  /// "cache.serve" spans under the request's server span; background work
  /// (staging, write-back, eviction) lands on this server's "cache-bg"
  /// track.  Same zero-cost-when-null contract as set_observer().
  void set_trace(obs::TraceSession* session);

  /// Attach a SimProfiler (nullptr to detach).  Cache-initiated background
  /// events (staging, write-back, drain) mark their simulator events with
  /// `category` so the profiler attributes their model time to the cache.
  void set_profiler(obs::SimProfiler* profiler, int category) {
    profiler_ = profiler;
    prof_cat_ = category;
  }

 private:
  CacheClass classify(const CacheRequest& r) const {
    return r.fragment ? CacheClass::kFragment : CacheClass::kRegular;
  }
  bool small_enough(const CacheRequest& r) const {
    return r.length < Bytes{r.fragment ? cfg_.fragment_threshold
                                       : cfg_.random_threshold};
  }

  /// Admission decision for a small request under the configured policy.
  /// Returns the return value to record with the cached data (baselines
  /// record the base estimate so dynamic partitioning still functions).
  bool admit(const CacheRequest& r, const ReturnEstimate& est);

  /// kHotBlock: count an access and report whether its region is hot.
  bool note_region_access(const CacheRequest& r);

  /// First disk LBN the request would touch (lambda_i of Equation 1).
  std::int64_t disk_lbn(const CacheRequest& r);
  std::int64_t disk_end_lbn(const CacheRequest& r);

  /// Trim every cached entry overlapping [off, off+len) of `file`,
  /// releasing the freed log space.  Dirty data in the range is dropped —
  /// callers only invalidate ranges that are being overwritten.
  void invalidate_range(fsim::FileId file, Offset off, Bytes len);

  /// Allocate `len` log bytes for class `c`, evicting under quota pressure
  /// and cleaning segments under space pressure.  Returns nullopt when the
  /// class quota cannot fit the allocation at all.
  sim::Task<std::optional<Offset>> make_room(CacheClass c, Bytes len);

  /// Evict one entry (write-back first when dirty); false if id vanished.
  sim::Task<bool> evict(EntryId id);

  /// Write a dirty entry's bytes back to the disk and mark it clean.
  sim::Task<> flush_entry(EntryId id);

  /// Flush a batch: stage all payloads out of the SSD log concurrently,
  /// then stream the disk writes back-to-back in sorted home order (the
  /// paper's "as many long sequential accesses as possible").  With
  /// `yield_to_foreground`, the write stream stops as soon as foreground
  /// requests queue at the disk (daemon mode); drain() flushes regardless.
  /// `batch` must already be in (file, offset) order with each entry once,
  /// as MappingTable::dirty_entries_into() returns it; the caller keeps it
  /// alive (pool leases) until the task completes.  Filters `batch` in
  /// place, down to the entries that were still cached and dirty when
  /// staging began.
  sim::Task<> flush_batch(std::vector<EntryId>& batch,
                          bool yield_to_foreground = false);

  /// Charge the SSD for persisting a mapping-table entry update.
  void charge_mapping_update(Offset near_log_off);

  /// Background copy of freshly disk-read data into the cache.
  sim::Task<> stage_read(CacheRequest r, CacheClass klass, double ret_ms);

  sim::Task<> writeback_daemon();

  /// A disk write in flight over a byte range of a datafile.  Two races hide
  /// here: a write-back whose disk write completes *after* a newer foreground
  /// write to the same range would resurrect stale bytes (write-after-write),
  /// and a stage_read that snapshots the disk while a foreground write is in
  /// flight would cache pre-write bytes as clean.  Windows make both visible:
  /// foreground writes barrier on overlapping flush windows, and stage_read
  /// drops its copy when a foreground write window overlaps.
  struct RangeWindow {
    std::uint64_t id;
    fsim::FileId file;
    Offset off;
    Bytes len;
  };
  static bool window_overlaps(const std::vector<RangeWindow>& ws,
                              fsim::FileId f, Offset off, Bytes len);
  std::uint64_t open_window(std::vector<RangeWindow>& ws, fsim::FileId f,
                            Offset off, Bytes len);
  void close_window(std::vector<RangeWindow>& ws, std::uint64_t id);
  /// Suspend until no flush window overlaps [off, off+len) of `file`.
  sim::Task<> wait_flush_windows(fsim::FileId f, Offset off, Bytes len);
  void notify_flush_waiters();

  /// Pin a byte range of the SSD log while a read streams out of it.  A
  /// concurrent eviction (e.g. make_room on behalf of a sibling
  /// sub-request's stage) may otherwise erase the entry being read and
  /// recycle its log bytes mid-read, handing the reader whatever the new
  /// tenant wrote.  Releases of pinned bytes are deferred to unpin time.
  std::uint64_t pin_log_range(Offset off, Bytes len);
  void unpin_log_range(std::uint64_t id);
  /// Every log release funnels through here so pins are honoured.
  void release_log(Offset off, Bytes len);

  void check(const char* where) {
    if (observer_) observer_->on_check(*this, where);
  }

  bool gate_cut(const char* phase) {
    return writeback_gate_ != nullptr && writeback_gate_->cut(phase);
  }

  sim::Simulator& sim_;
  IBridgeConfig cfg_;
  ServerId self_;
  fsim::LocalFileSystem& disk_fs_;
  fsim::LocalFileSystem& ssd_fs_;
  fsim::FileId log_file_ = fsim::kInvalidFile;
  ServiceTimeModel stm_;
  ReturnEstimator estimator_;
  MappingTable table_;
  SsdLog log_;
  PartitionController partition_;
  TBoard board_;
  CacheStats stats_;
  // kHotBlock heat map: (file, region index) -> access count.  Ordered so
  // the bounding sweep in note_region_access iterates deterministically;
  // bounded by cfg_.hot_block_max_regions via periodic halving.
  std::map<std::uint64_t, int> region_heat_;
  std::vector<RangeWindow> flush_windows_;  ///< write-back writes in flight
  std::vector<RangeWindow> write_windows_;  ///< foreground writes in flight
  std::vector<std::coroutine_handle<>> flush_waiters_;
  std::uint64_t next_window_id_ = 0;
  // Foreground writes that completed while at least one stage_read was in
  // flight: a stage whose disk snapshot predates such a write must drop its
  // copy even though the write's window is already closed.  Cleared whenever
  // the last live stage retires, so the list stays tiny.
  std::vector<RangeWindow> completed_writes_;
  int active_stages_ = 0;
  std::vector<RangeWindow> read_pins_;  ///< log ranges with reads in flight
  std::vector<std::pair<Offset, Bytes>> deferred_releases_;
  bool running_ = false;
  std::uint64_t daemon_epoch_ = 0;
  /// Recycled payload staging buffers (verify-mode flush/stage copies).
  /// Keeps write-back and staging off the allocator in steady state.
  sim::BufferPool pool_;
  /// Recycled scratch vectors for the mapping-table *_into queries on the
  /// serve/invalidate/write-back paths: coverage slices, overlapping and
  /// batch entry ids, freed (log_off, length) ranges, and read pins.
  sim::VectorPool<LogSlice> slice_pool_;
  sim::VectorPool<EntryId> id_pool_;
  sim::VectorPool<std::pair<Offset, Bytes>> range_pool_;
  sim::VectorPool<std::uint64_t> pin_pool_;
  /// One completion record per log read flush_batch stages (see
  /// sim::Completion: sized before the first submit, so none moves while
  /// the SSD holds it).
  sim::VectorPool<sim::Completion<storage::BlockCompletion>> read_pool_;
  /// Extent-map scratch for disk_lbn/disk_end_lbn/charge_mapping_update
  /// and flush_batch's log reads; each use consumes it before the next one
  /// refills it.
  std::vector<fsim::MappedRange> map_scratch_;
  CacheObserver* observer_ = nullptr;
  WritebackGate* writeback_gate_ = nullptr;
  obs::TraceSession* trace_ = nullptr;
  obs::TrackId trace_bg_track_ = obs::kNoTrack;
  obs::SimProfiler* profiler_ = nullptr;
  int prof_cat_ = 0;
  sim::TaskGroup background_;
};

}  // namespace ibridge::core
