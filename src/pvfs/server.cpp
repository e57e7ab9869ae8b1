#include "pvfs/server.hpp"

#include <cassert>
#include <utility>

namespace ibridge::pvfs {

namespace {

/// Concurrent local I/O jobs per server (pvfs2-server's Trove async-I/O
/// pool is bounded; this caps device queue depth and thus how much request
/// merging deep client concurrency can buy).
constexpr int kIoConcurrency = 8;

}  // namespace

DataServer::DataServer(sim::Simulator& sim, sim::ServerId id,
                       const DataServerConfig& cfg, net::Nic& nic,
                       storage::SeekProfile profile)
    : sim_(sim), id_(id), nic_(nic), io_slots_(sim, kIoConcurrency) {
  // Every client request funnels through io_slots_, so its waiter ring is
  // on the serve path: pre-size it for a burst of 1024 blocked requests
  // (8 KB) so a waiter high-water mark reached mid-run never reallocates —
  // the zero-allocs-per-request steady-state gate counts that as churn.
  io_slots_.reserve(1024);
  disk_ = std::make_unique<storage::HddModel>(sim, cfg.hdd);
  disk_fs_ =
      std::make_unique<fsim::LocalFileSystem>(sim, *disk_, cfg.data_mode);
  disk_fs_->set_rmw_page_bytes(cfg.rmw_page_bytes.count());
  primary_fs_ = disk_fs_.get();

  const bool want_ssd =
      cfg.ibridge.enabled || cfg.storage_mode == StorageMode::kSsdOnly;
  if (want_ssd) {
    ssd_ = std::make_unique<storage::SsdModel>(sim, cfg.ssd);
    ssd_fs_ =
        std::make_unique<fsim::LocalFileSystem>(sim, *ssd_, cfg.data_mode);
  }
  if (cfg.storage_mode == StorageMode::kSsdOnly) {
    // Datafiles live on the SSD: the OS cache still does page-granular RMW
    // there.  (iBridge's log file is exempt — see DataServerConfig.)
    ssd_fs_->set_rmw_page_bytes(cfg.rmw_page_bytes.count());
    primary_fs_ = ssd_fs_.get();
  } else if (cfg.ibridge.enabled) {
    cache_ = std::make_unique<core::IBridgeCache>(
        sim, cfg.ibridge, id, *disk_fs_, *ssd_fs_, std::move(profile));
    cache_->start();
  }
}

DataServer::~DataServer() {
  if (cache_) cache_->stop();
}

void DataServer::set_trace(obs::TraceSession* session) {
  trace_ = session;
  if (cache_) cache_->set_trace(session);
  if (session == nullptr) {
    trace_track_ = obs::kNoTrack;
    disk_->set_span_trace(nullptr, obs::kNoTrack);
    if (ssd_) ssd_->set_span_trace(nullptr, obs::kNoTrack);
    return;
  }
  trace_prefix_ = "srv" + std::to_string(id_.index());
  trace_track_ = session->track(trace_prefix_, "io");
  disk_->set_span_trace(session, session->track(trace_prefix_, "disk"));
  if (ssd_) {
    ssd_->set_span_trace(session, session->track(trace_prefix_, "ssd"));
  }
}

void DataServer::set_profiler(obs::SimProfiler* profiler) {
  profiler_ = profiler;
  if (profiler == nullptr) {
    prof_cat_ = 0;
    if (cache_) cache_->set_profiler(nullptr, 0);
    disk_->set_profiler(nullptr, 0);
    if (ssd_) ssd_->set_profiler(nullptr, 0);
    return;
  }
  prof_cat_ = profiler->category("server");
  if (cache_) cache_->set_profiler(profiler, profiler->category("cache"));
  disk_->set_profiler(profiler, profiler->category("disk"));
  if (ssd_) ssd_->set_profiler(profiler, profiler->category("ssd"));
}

fsim::FileId DataServer::create_datafile(const std::string& name,
                                         sim::Bytes prealloc) {
  const fsim::FileId id = primary_fs_->create(name, prealloc.count());
  assert(id != fsim::kInvalidFile && "data server out of space");
  return id;
}

void DataServer::set_offline(bool offline) {
  if (offline_ == offline) return;
  offline_ = offline;
  if (offline_) return;
  // Back online: release parked arrivals in arrival order.  Resumption is
  // deferred through the simulator so it interleaves deterministically with
  // other work scheduled at this instant.
  std::vector<std::coroutine_handle<>> waiters;
  waiters.swap(offline_waiters_);
  for (std::coroutine_handle<> h : waiters) {
    sim_.defer([h] { h.resume(); });
  }
}

sim::Task<core::ServeResult> DataServer::io(core::CacheRequest req,
                                            std::span<const std::byte> wdata,
                                            std::span<std::byte> rdata) {
  if (profiler_ != nullptr) profiler_->mark(prof_cat_);
  const sim::SimTime t0 = sim_.now();
  // Entry gate: while the server is offline (crashed), park until restart.
  // Re-check after resumption — the server may crash again before this
  // request gets through.
  while (offline_) {
    struct OfflineWake {
      DataServer& s;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) {
        s.offline_waiters_.push_back(h);
      }
      void await_resume() const noexcept {}
    };
    co_await OfflineWake{*this};
  }
  const sim::Bytes length = req.length;
  obs::SpanId qspan = 0, sspan = 0;
  ++inflight_;
  if (trace_ != nullptr) {
    trace_->counter(trace_prefix_ + ".inflight", inflight_);
    if (req.trace_parent != 0) {
      qspan = trace_->begin(trace_track_, "server.queue", "server",
                            req.trace_request, req.trace_parent);
    }
  }
  // Take a Trove I/O slot: pvfs2-server performs a bounded number of local
  // I/O jobs concurrently.
  co_await io_slots_.acquire();
  if (qspan != 0) {
    trace_->end(qspan);
    sspan = trace_->begin(trace_track_, "server.serve", "server",
                          req.trace_request, req.trace_parent);
    req.trace_parent = sspan;  // nest cache spans under the serve span
  }
  core::ServeResult result;
  if (cache_) {
    result = co_await cache_->serve(std::move(req), wdata, rdata);
  } else {
    if (req.dir == storage::IoDirection::kWrite) {
      co_await primary_fs_->write(req.file, req.offset.value(),
                                  req.length.count(), wdata, req.tag);
    } else {
      co_await primary_fs_->read(req.file, req.offset.value(),
                                 req.length.count(), rdata, req.tag);
    }
  }
  io_slots_.release();
  result.elapsed = sim_.now() - t0;
  service_.add(result.elapsed);
  bytes_served_ += length;
  --inflight_;
  if (trace_ != nullptr) {
    if (sspan != 0) {
      trace_->arg(sspan, "ssd", result.ssd ? 1 : 0);
      trace_->end(sspan);
    }
    trace_->counter(trace_prefix_ + ".inflight", inflight_);
  }
  co_return result;
}

sim::Task<> DataServer::drain() {
  if (cache_) co_await cache_->drain();
}

}  // namespace ibridge::pvfs
