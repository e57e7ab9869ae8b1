#include "core/cache.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace ibridge::core {

using storage::IoDirection;

namespace {

/// kHotBlock: accesses to a region before caching kicks in.
constexpr int kHotBlockMinHits = 2;

/// Write-back budgets.  The daemon's per-wake budget (also an eviction's
/// batch flush) is small so a wake-up steals little from foreground bursts;
/// drain() (program exit) flushes in large batches.
constexpr Bytes kWritebackDaemonBytes{256 << 10};
constexpr Bytes kWritebackBatchBytes{8 << 20};

/// Bytes charged to the SSD for persisting a mapping-table entry update
/// (the paper updates dirty table entries on the SSD with each write).
constexpr std::int64_t kMappingEntryBytes = 64;

/// MappingTable slab slots reserved at construction, so steady-state entry
/// churn below this mark never grows the slab.  The table's sorted-block
/// indexes are not reserved: they grow with the live set and recycle
/// emptied blocks.  The hard ceiling on live entries is ssd_cache_bytes
/// divided by the smallest cached range; this covers typical working sets
/// without bloating small runs.
constexpr std::size_t kMappingReserveEntries = 4096;

}  // namespace

IBridgeCache::IBridgeCache(sim::Simulator& sim, IBridgeConfig cfg,
                           ServerId self, fsim::LocalFileSystem& disk_fs,
                           fsim::LocalFileSystem& ssd_fs,
                           storage::SeekProfile profile)
    : sim_(sim),
      cfg_(cfg),
      self_(self),
      disk_fs_(disk_fs),
      ssd_fs_(ssd_fs),
      stm_(std::move(profile), cfg.t_old_weight),
      estimator_(cfg.fragment_boost),
      log_(Bytes{cfg.ssd_cache_bytes}, Bytes{cfg.log_segment_bytes}),
      partition_(cfg, Bytes{cfg.ssd_cache_bytes}),
      background_(sim) {
  // Pre-create the log file with slack for piggybacked mapping updates.
  log_file_ = ssd_fs_.create("ibridge.log",
                             cfg.ssd_cache_bytes + (1 << 20));
  if (log_file_ == fsim::kInvalidFile) {
    throw std::invalid_argument(
        "core::IBridgeCache: ssd_cache_bytes = " +
        std::to_string(cfg.ssd_cache_bytes) +
        " plus the log's slack does not fit on the SSD");
  }
  // flush_batch() reads each entry back as a single block request.
  assert(ssd_fs_.file(log_file_).contiguous() && "cache log is one extent");
  table_.reserve(kMappingReserveEntries);
}

void IBridgeCache::set_trace(obs::TraceSession* session) {
  trace_ = session;
  trace_bg_track_ = obs::kNoTrack;
  if (trace_ != nullptr) {
    trace_bg_track_ =
        trace_->track("srv" + std::to_string(self_.index()), "cache-bg");
  }
}

void IBridgeCache::start() {
  if (running_) return;
  running_ = true;
  ++daemon_epoch_;
  background_.spawn(writeback_daemon());
}

void IBridgeCache::stop() {
  running_ = false;
  ++daemon_epoch_;
}

std::int64_t IBridgeCache::disk_lbn(const CacheRequest& r) {
  const auto& f = disk_fs_.file(r.file);
  if ((r.offset + r.length).value() > f.size()) {
    // Write extending the file: predict placement at the current tail.
    const auto& ext = f.extents();
    if (ext.empty()) return 0;
    return ext.back().lbn + ext.back().sectors;
  }
  f.map_into(r.offset.value(), r.length.count(), map_scratch_);
  assert(!map_scratch_.empty());
  return map_scratch_.front().lbn;
}

std::int64_t IBridgeCache::disk_end_lbn(const CacheRequest& r) {
  const auto& f = disk_fs_.file(r.file);
  if ((r.offset + r.length).value() > f.size()) return disk_lbn(r);
  f.map_into(r.offset.value(), r.length.count(), map_scratch_);
  assert(!map_scratch_.empty());
  return map_scratch_.back().lbn + map_scratch_.back().sectors;
}

bool IBridgeCache::window_overlaps(const std::vector<RangeWindow>& ws,
                                   fsim::FileId f, Offset off, Bytes len) {
  for (const auto& w : ws) {
    if (w.file == f && w.off < off + len && off < w.off + w.len) return true;
  }
  return false;
}

std::uint64_t IBridgeCache::open_window(std::vector<RangeWindow>& ws,
                                        fsim::FileId f, Offset off,
                                        Bytes len) {
  const std::uint64_t id = ++next_window_id_;
  ws.push_back({id, f, off, len});
  return id;
}

void IBridgeCache::close_window(std::vector<RangeWindow>& ws,
                                std::uint64_t id) {
  std::erase_if(ws, [id](const RangeWindow& w) { return w.id == id; });
}

sim::Task<> IBridgeCache::wait_flush_windows(fsim::FileId f, Offset off,
                                             Bytes len) {
  // Broadcast wake-up, then re-check: another flush of the range may have
  // started while this coroutine was parked (local classes in a member
  // function share the enclosing class's access).
  while (window_overlaps(flush_windows_, f, off, len)) {
    struct FlushWake {
      IBridgeCache& c;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        c.flush_waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    co_await FlushWake{*this};
  }
}

void IBridgeCache::notify_flush_waiters() {
  // defer() only queues the resumes, so nothing joins the list mid-loop;
  // clear() keeps its capacity for the writes that park behind the next
  // flush.
  for (auto h : flush_waiters_) {
    sim_.defer([h] { h.resume(); });
  }
  flush_waiters_.clear();
}

std::uint64_t IBridgeCache::pin_log_range(Offset off, Bytes len) {
  return open_window(read_pins_, log_file_, off, len);
}

void IBridgeCache::unpin_log_range(std::uint64_t id) {
  close_window(read_pins_, id);
  std::erase_if(deferred_releases_, [this](const auto& r) {
    if (window_overlaps(read_pins_, log_file_, r.first, r.second)) {
      return false;  // still pinned by another reader
    }
    log_.release(r.first, r.second);
    return true;
  });
}

void IBridgeCache::release_log(Offset off, Bytes len) {
  if (len <= Bytes::zero()) return;
  if (window_overlaps(read_pins_, log_file_, off, len)) {
    deferred_releases_.emplace_back(off, len);
  } else {
    log_.release(off, len);
  }
}

void IBridgeCache::invalidate_range(fsim::FileId file, Offset off, Bytes len) {
  auto ids = id_pool_.acquire();
  table_.overlapping_into(file, off, len, *ids);
  auto freed = range_pool_.acquire();
  for (EntryId id : *ids) table_.trim(id, off, len, *freed);
  for (const auto& [log_off, n] : *freed) release_log(log_off, n);
}

bool IBridgeCache::note_region_access(const CacheRequest& r) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(r.file) << 40) ^
      static_cast<std::uint64_t>(r.offset / Bytes{cfg_.hot_block_region});
  const bool hot = ++region_heat_[key] >= kHotBlockMinHits;
  // Keep the heat map bounded: long runs over huge, cold address spaces
  // would otherwise grow it without limit.  Halve every count (erasing
  // zeroed regions) until the map fits — exponential decay that preserves
  // the relative standing of genuinely hot regions.
  while (std::cmp_greater(region_heat_.size(), cfg_.hot_block_max_regions)) {
    for (auto it = region_heat_.begin(); it != region_heat_.end();) {
      it->second /= 2;
      it = it->second == 0 ? region_heat_.erase(it) : std::next(it);
    }
  }
  return hot;
}

bool IBridgeCache::admit(const CacheRequest& r, const ReturnEstimate& est) {
  if (!small_enough(r)) return false;
  switch (cfg_.admission) {
    case AdmissionPolicy::kReturnBased:
      return est.ret_ms > 0.0;
    case AdmissionPolicy::kAlwaysSmall:
      return true;
    case AdmissionPolicy::kHotBlock:
      return note_region_access(r);
  }
  return false;
}

sim::Task<std::optional<Offset>> IBridgeCache::make_room(CacheClass c,
                                                         Bytes len) {
  if (len > partition_.quota(table_, c) || len > log_.segment_bytes()) {
    co_return std::nullopt;
  }
  // Quota pressure: evict LRU entries of the same class.
  while (partition_.over_quota(table_, c, len)) {
    const EntryId victim = table_.lru_victim(c);
    if (victim == kNoEntry) break;  // class empty yet over quota: shrink race
    co_await evict(victim);
  }
  // The other class may hold space beyond its (possibly shrunken) quota;
  // reclaim from it if the log is still out of room.
  const CacheClass other =
      c == CacheClass::kFragment ? CacheClass::kRegular : CacheClass::kFragment;
  while (!log_.has_room(len) &&
         table_.bytes_cached(other) > partition_.quota(table_, other)) {
    const EntryId victim = table_.lru_victim(other);
    if (victim == kNoEntry) break;
    co_await evict(victim);
  }
  // Space pressure despite quotas (log fragmentation): clean segments.
  int guard = log_.free_segment_count() + 64;
  while (!log_.has_room(len) && guard-- > 0) {
    const int seg = log_.victim_segment();
    if (seg < 0) break;
    ++stats_.cleanings;
    const auto [b, e] = log_.segment_range(seg);
    auto victims = id_pool_.acquire();
    table_.entries_in_log_range_into(b, e, *victims);
    for (EntryId id : *victims) {
      co_await evict(id);
    }
  }
  co_return log_.append(len);
}

sim::Task<bool> IBridgeCache::evict(EntryId id) {
  if (!table_.contains(id)) co_return false;
  if (table_.get(id).dirty) {
    // Flushing one tiny dirty entry per eviction would thrash under
    // capacity pressure (every admission would pay a synchronous small
    // disk write).  Amortize: flush a whole file-ordered batch, which
    // coalesces into long runs and leaves a clean cohort to evict cheaply.
    auto batch = id_pool_.acquire();
    table_.dirty_entries_into(kWritebackDaemonBytes, *batch);
    co_await flush_batch(*batch);
    if (!table_.contains(id)) co_return false;  // raced with invalidation
    if (table_.get(id).dirty) co_await flush_entry(id);  // not in the batch
    if (!table_.contains(id)) co_return false;
  }
  const CacheEntry e = table_.erase(id);
  release_log(e.log_off, e.length);
  ++stats_.evictions;
  if (trace_ != nullptr) {
    const obs::SpanId tspan = trace_->complete(
        trace_bg_track_, "cache.evict", "cache", sim_.now(),
        sim::SimTime::zero());
    trace_->arg(tspan, "length", e.length.count());
  }
  check("evict");
  co_return true;
}

sim::Task<> IBridgeCache::flush_entry(EntryId id) {
  if (!table_.contains(id) || !table_.get(id).dirty) co_return;
  const CacheEntry e = table_.get(id);

  sim::BufferPool::Lease buf = pool_.acquire();
  std::span<std::byte> span;
  if (ssd_fs_.data_mode() == fsim::DataMode::kVerify) {
    buf->resize(static_cast<std::size_t>(e.length.count()));
    span = *buf;
  }
  // Read the payload from the log, then write it to its home location.
  co_await ssd_fs_.read(log_file_, e.log_off.value(), e.length.count(), span);
  // A concurrent write may have trimmed or replaced the entry while the log
  // read was in flight (trim re-inserts remainders under new ids).  If the
  // id is gone, this copy is partially stale: skip the disk write — the
  // surviving remainder entries are still dirty and will be flushed.
  if (!table_.contains(id) || !table_.get(id).dirty) co_return;
  // Note: write-back traffic does NOT update the Eq. (1) state — T is the
  // average service time of *workload* requests served by the disk, and
  // letting internal bulk flushes (large coalesced runs) into the average
  // would spike T and starve admission right after every flush.
  const std::uint64_t win =
      open_window(flush_windows_, e.file, e.file_off, e.length);
  co_await disk_fs_.write(e.file, e.file_off.value(), e.length.count(),
                          std::span<const std::byte>(span.data(), span.size()));
  close_window(flush_windows_, win);
  notify_flush_waiters();
  if (table_.contains(id)) table_.mark_clean(id);
  ++stats_.writebacks;
  stats_.writeback_bytes += e.length;
  check("flush.entry");
}

void IBridgeCache::charge_mapping_update(Offset near_log_off) {
  // Piggyback a tiny sequential write right behind the data (the real
  // implementation appends the updated table entry with the log record).
  const std::int64_t off =
      std::min(near_log_off.value(), ssd_fs_.file(log_file_).size() - 512);
  ssd_fs_.file(log_file_).map_into(std::max<std::int64_t>(off, 0),
                                   kMappingEntryBytes, map_scratch_);
  if (map_scratch_.empty()) return;
  // Fire and forget: the device charges the time; nothing waits on it.
  ssd_fs_.device().submit({IoDirection::kWrite, map_scratch_.front().lbn,
                           map_scratch_.front().sectors, 0});
}

sim::Task<ServeResult> IBridgeCache::serve(CacheRequest r,
                                           std::span<const std::byte> wdata,
                                           std::span<std::byte> rdata) {
  assert(r.length > Bytes::zero());
  const sim::SimTime t0 = sim_.now();
  ServeResult result;
  const CacheClass klass = classify(r);
  const obs::SpanId cspan =
      (trace_ != nullptr && r.trace_parent != 0)
          ? trace_->child(r.trace_parent, "cache.serve", "cache")
          : 0;

  if (r.dir == IoDirection::kWrite) {
    // Write-after-write barrier: a write-back of an older version of this
    // range may still be in flight, and if its disk write completed after
    // ours the stale bytes would win.  Wait for overlapping flush windows
    // first (both the admit and the disk branch supersede the range), then
    // publish our own window so stage_read won't snapshot mid-write bytes.
    co_await wait_flush_windows(r.file, r.offset, r.length);
    const std::uint64_t win =
        open_window(write_windows_, r.file, r.offset, r.length);
    const std::int64_t lbn = disk_lbn(r);
    const auto est = estimator_.estimate(stm_, lbn, r.length, r.dir,
                                         r.fragment, self_, r.siblings,
                                         board_);
    stats_.ret_estimate_ms.add(est.ret_ms);
    if (est.boosted) ++stats_.boosts;
    bool admit = this->admit(r, est);
    std::optional<Offset> log_off;
    if (admit) {
      // Any cached overlap is superseded by this write.
      invalidate_range(r.file, r.offset, r.length);
      log_off = co_await make_room(klass, r.length);
      admit = log_off.has_value();
    }
    if (admit) {
      co_await ssd_fs_.write(log_file_, log_off->value(), r.length.count(),
                             wdata);
      charge_mapping_update(*log_off + r.length);
      // A concurrent admission may have cached the same range while the SSD
      // write was in flight; supersede it.
      invalidate_range(r.file, r.offset, r.length);
      table_.insert({r.file, r.offset, r.length, *log_off, /*dirty=*/true,
                     klass, est.ret_ms});
      // Eq. (2): disk state unchanged.
      ++stats_.write_admits;
      ++stats_.admit_by_class[static_cast<int>(klass)];
      stats_.ssd_bytes_served += r.length;
      result.ssd = true;
      result.boosted = est.boosted;
      check("serve.write.ssd");
    } else {
      if (log_off) release_log(*log_off, r.length);
      // Disk write supersedes any cached overlap.
      invalidate_range(r.file, r.offset, r.length);
      co_await disk_fs_.write(r.file, r.offset.value(), r.length.count(),
                              wdata, r.tag);
      stm_.observe_disk(lbn, r.length, r.dir, disk_end_lbn(r));  // Eq. (1)
      ++stats_.write_disk;
      stats_.disk_bytes_served += r.length;
      check("serve.write.disk");
    }
    close_window(write_windows_, win);
    if (active_stages_ > 0) {
      completed_writes_.push_back({win, r.file, r.offset, r.length});
    }
    result.elapsed = sim_.now() - t0;
    if (cspan != 0) {
      trace_->arg(cspan, "outcome", admit ? "write.ssd" : "write.disk");
      trace_->end(cspan);
    }
    co_return result;
  }

  // ------------------------------------------------------------- read ----
  auto slices = slice_pool_.acquire();
  table_.coverage_into(r.file, r.offset, r.length, *slices);
  if (!slices->empty()) {
    // Pin every slice's log bytes for the duration of the reads: a
    // concurrent eviction may erase these entries and recycle their log
    // space mid-read (the stale-read hazard SimCheck's fuzzer caught).
    auto pins = pin_pool_.acquire();
    pins->reserve(slices->size());
    for (const auto& s : *slices) {
      pins->push_back(pin_log_range(s.log_off, s.length));
    }
    for (const auto& s : *slices) {
      std::span<std::byte> sub;
      if (!rdata.empty()) {
        sub = rdata.subspan(
            static_cast<std::size_t>((s.file_off - r.offset).count()),
            static_cast<std::size_t>(s.length.count()));
      }
      co_await ssd_fs_.read(log_file_, s.log_off.value(), s.length.count(),
                            sub);
      if (table_.contains(s.entry)) table_.touch(s.entry);
    }
    for (const std::uint64_t p : *pins) unpin_log_range(p);
    ++stats_.read_hits;
    stats_.ssd_bytes_served += r.length;
    result.ssd = true;
    result.elapsed = sim_.now() - t0;
    if (cspan != 0) {
      trace_->arg(cspan, "outcome", "read.hit");
      trace_->end(cspan);
    }
    check("serve.read.hit");
    co_return result;  // Eq. (2): disk untouched
  }

  // Miss.  Dirty cached data overlapping the range is newer than the disk:
  // flush it first so the disk read returns current bytes.
  {
    auto dirty_overlaps = id_pool_.acquire();
    table_.overlapping_into(r.file, r.offset, r.length, *dirty_overlaps);
    for (EntryId id : *dirty_overlaps) {
      if (table_.contains(id) && table_.get(id).dirty) {
        co_await flush_entry(id);
      }
    }
  }

  const std::int64_t lbn = disk_lbn(r);
  const auto est = estimator_.estimate(stm_, lbn, r.length, r.dir, r.fragment,
                                       self_, r.siblings, board_);
  stats_.ret_estimate_ms.add(est.ret_ms);
  if (est.boosted) ++stats_.boosts;
  co_await disk_fs_.read(r.file, r.offset.value(), r.length.count(),
                         rdata, r.tag);
  stm_.observe_disk(lbn, r.length, r.dir, disk_end_lbn(r));  // Eq. (1)
  ++stats_.read_misses;
  stats_.disk_bytes_served += r.length;
  result.boosted = est.boosted;

  // Positive return (or baseline-policy admission): cache the data for
  // future runs, copying it into the log in the background ("when the SSD
  // is idle").
  if (admit(r, est)) {
    background_.spawn(stage_read(r, klass, est.ret_ms));
  }
  result.elapsed = sim_.now() - t0;
  if (cspan != 0) {
    trace_->arg(cspan, "outcome", "read.miss");
    trace_->end(cspan);
  }
  check("serve.read.miss");
  co_return result;
}

sim::Task<> IBridgeCache::stage_read(CacheRequest r, CacheClass klass,
                                     double ret_ms) {
  if (profiler_ != nullptr) profiler_->mark(prof_cat_);
  const obs::SpanId tspan =
      trace_ != nullptr
          ? trace_->begin(trace_bg_track_, "cache.stage", "cache",
                          r.trace_request)
          : 0;
  if (tspan != 0) trace_->arg(tspan, "length", r.length.count());
  const std::optional<Offset> log_off = co_await make_room(klass, r.length);
  if (!log_off) {
    if (trace_ != nullptr) trace_->end(tspan);
    co_return;
  }

  ++active_stages_;
  const std::size_t mark = completed_writes_.size();
  sim::BufferPool::Lease buf = pool_.acquire();
  std::span<const std::byte> span;
  if (ssd_fs_.data_mode() == fsim::DataMode::kVerify) {
    buf->resize(static_cast<std::size_t>(r.length.count()));
    // The bytes were just read from the disk; fetch them from its store.
    std::span<std::byte> mut(*buf);
    disk_fs_.peek_bytes(r.file, r.offset.value(), mut);
    span = *buf;
  }
  co_await ssd_fs_.write(log_file_, log_off->value(), r.length.count(), span);
  charge_mapping_update(*log_off + r.length);

  // While the copy was in flight, a write may have cached or rewritten the
  // range; if anything overlaps now, the staged copy is stale — drop it.
  // A foreground write that is still in flight — or that started *and*
  // finished while our SSD write was pending — is just as fatal: the peek
  // above may predate its poke, so the staged bytes could be either version.
  bool stale = table_.has_overlap(r.file, r.offset, r.length) ||
               window_overlaps(write_windows_, r.file, r.offset, r.length);
  for (std::size_t k = mark; !stale && k < completed_writes_.size(); ++k) {
    const RangeWindow& w = completed_writes_[k];
    stale = w.file == r.file && w.off < r.offset + r.length &&
            r.offset < w.off + w.len;
  }
  if (--active_stages_ == 0) completed_writes_.clear();
  if (stale) {
    release_log(*log_off, r.length);
    if (trace_ != nullptr) trace_->end(tspan);
    co_return;
  }
  table_.insert({r.file, r.offset, r.length, *log_off, /*dirty=*/false, klass,
                 ret_ms});
  ++stats_.stages;
  ++stats_.admit_by_class[static_cast<int>(klass)];
  if (trace_ != nullptr) trace_->end(tspan);
  check("stage");
}

sim::Task<> IBridgeCache::flush_batch(std::vector<EntryId>& batch,
                                      bool yield_to_foreground) {
  // Crash-gate phase boundaries (see WritebackGate in observer.hpp).  A cut
  // leaves every touched entry dirty and no window open, so the batch can be
  // re-flushed after recovery.
  if (gate_cut("batch.begin")) co_return;
  if (profiler_ != nullptr) profiler_->mark(prof_cat_);
  const obs::SpanId tspan =
      (trace_ != nullptr && !batch.empty())
          ? trace_->begin(trace_bg_track_, "cache.writeback", "cache")
          : 0;
  // dirty_entries_into() hands batches over in home order, so the flushed
  // writes form long forward runs without sorting again here.
  assert(std::is_sorted(batch.begin(), batch.end(),
                        [this](EntryId a, EntryId b) {
                          const auto& ea = table_.get(a);
                          const auto& eb = table_.get(b);
                          if (ea.file != eb.file) return ea.file < eb.file;
                          return ea.file_off < eb.file_off;
                        }));

  // Stage every payload out of the SSD log concurrently so the disk writes
  // can then stream back-to-back with no inter-write gaps.  The log file is
  // one extent, so each entry is one block read.
  const auto live = [this](EntryId id) {
    return table_.contains(id) && table_.get(id).dirty;
  };
  std::erase_if(batch, [&live](EntryId id) { return !live(id); });
  auto staged = read_pool_.acquire();
  staged->resize(batch.size());
  sim::JoinSet reads(sim_);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const CacheEntry& e = table_.get(batch[k]);
    ssd_fs_.file(log_file_).map_into(e.log_off.value(), e.length.count(),
                                     map_scratch_);
    ssd_fs_.device().submit({IoDirection::kRead, map_scratch_.front().lbn,
                             map_scratch_.front().sectors, 0},
                            &(*staged)[k]);
    reads.add((*staged)[k]);
  }
  co_await reads.join();
  if (gate_cut("batch.staged")) {
    if (tspan != 0) trace_->end(tspan);
    co_return;
  }

  // Coalesce byte-contiguous entries into single long disk writes — the
  // paper's write-back is "scheduled to form as many long sequential
  // accesses as possible".  Without this, dense small dirty data (e.g.
  // BTIO's 640-2160 B strided records) would pay a positioning cost per
  // entry even though the union of the entries is one contiguous region.
  // A live id still names the entry staged above: ids are never reused,
  // and a live entry changes only its dirty bit.
  constexpr Bytes kMaxRun{8 << 20};
  std::size_t i = 0;
  while (i < batch.size()) {
    if (yield_to_foreground && disk_fs_.device().queue_depth() > 0) break;
    // Find the start of a valid run.
    if (!live(batch[i])) {
      ++i;
      continue;
    }
    const CacheEntry head = table_.get(batch[i]);
    std::size_t j = i + 1;
    Bytes run_len = head.length;
    while (j < batch.size() && run_len < kMaxRun && live(batch[j]) &&
           table_.get(batch[j]).file == head.file &&
           table_.get(batch[j]).file_off == head.file_off + run_len) {
      run_len += table_.get(batch[j++]).length;
    }
    if (gate_cut("batch.write")) break;

    // Verify mode: a live entry's log range still holds the bytes it was
    // admitted with, since admissions only append to free log space.
    sim::BufferPool::Lease run_buf = pool_.acquire();
    if (ssd_fs_.data_mode() == fsim::DataMode::kVerify) {
      for (std::size_t k = i; k < j; ++k) {
        const CacheEntry& e = table_.get(batch[k]);
        const std::size_t at = run_buf->size();
        run_buf->resize(at + static_cast<std::size_t>(e.length.count()));
        ssd_fs_.peek_bytes(log_file_, e.log_off.value(),
                           std::span(*run_buf).subspan(at));
      }
    }
    // (As in flush_entry: internal write-back does not update Eq. (1).)
    const std::uint64_t win =
        open_window(flush_windows_, head.file, head.file_off, run_len);
    co_await disk_fs_.write(head.file, head.file_off.value(),
                            run_len.count(), *run_buf);
    close_window(flush_windows_, win);
    notify_flush_waiters();
    // Crash after the data write but before the metadata update: the
    // entries stay dirty and will be written again post-recovery —
    // idempotent, since the payload already matches.
    if (gate_cut("batch.clean")) break;
    stats_.writeback_bytes += run_len;
    for (std::size_t k = i; k < j; ++k) {
      if (table_.contains(batch[k])) table_.mark_clean(batch[k]);
      ++stats_.writebacks;
    }
    i = j;
  }
  if (tspan != 0) {
    trace_->arg(tspan, "entries", static_cast<std::int64_t>(batch.size()));
    trace_->end(tspan);
  }
  check("flush.batch");
}

sim::Task<> IBridgeCache::writeback_daemon() {
  const std::uint64_t epoch = daemon_epoch_;
  while (running_ && epoch == daemon_epoch_) {
    co_await sim::Delay{sim_, cfg_.writeback_interval};
    if (!running_ || epoch != daemon_epoch_) break;
    // Quiet-period detection: skip the wake-up when foreground work is
    // queued at the disk — unless dirty data is piling up toward the
    // capacity limit, in which case flushing now is cheaper than letting
    // admissions evict synchronously later.
    const bool pressure =
        table_.dirty_bytes() > partition_.capacity() / 2;  // Bytes compare
    if (!pressure && disk_fs_.device().queue_depth() > 0) continue;
    auto batch = id_pool_.acquire();
    table_.dirty_entries_into(kWritebackDaemonBytes, *batch);
    if (batch->empty()) continue;
    co_await flush_batch(*batch, /*yield_to_foreground=*/!pressure);
  }
}

sim::Task<> IBridgeCache::drain() {
  if (profiler_ != nullptr) profiler_->mark(prof_cat_);
  const obs::SpanId tspan =
      trace_ != nullptr
          ? trace_->begin(trace_bg_track_, "cache.drain", "cache")
          : 0;
  while (table_.dirty_bytes() > Bytes::zero()) {
    auto batch = id_pool_.acquire();
    table_.dirty_entries_into(kWritebackBatchBytes, *batch);
    if (batch->empty()) break;
    co_await flush_batch(*batch);
  }
  if (trace_ != nullptr) trace_->end(tspan);
  check("drain");
}

sim::Task<> IBridgeCache::flush_dirty(Bytes budget) {
  auto batch = id_pool_.acquire();
  table_.dirty_entries_into(budget, *batch);
  if (batch->empty()) co_return;
  co_await flush_batch(*batch, /*yield_to_foreground=*/true);
}

bool IBridgeCache::recover(std::istream& in) {
  assert(background_.all_finished() && read_pins_.empty() &&
         flush_windows_.empty() && write_windows_.empty());
  // Drop the current (post-crash, untrusted) state: erase every entry and
  // zero the log's allocation accounting.
  for (EntryId id : table_.all_entries()) table_.erase(id);
  log_.reset();
  if (!table_.load(in)) {
    // Malformed image: load() may have admitted a prefix of the entries
    // before rejecting — drop them and come back empty but usable.
    for (EntryId id : table_.all_entries()) table_.erase(id);
    log_.finish_restore();
    check("recover");
    return false;
  }
  for (EntryId id : table_.all_entries()) {
    const CacheEntry& e = table_.get(id);
    log_.restore_range(e.log_off, e.length);
  }
  log_.finish_restore();
  check("recover");
  return true;
}

}  // namespace ibridge::core
