// Data server: the pvfs2-server equivalent.
//
// Each data server owns a hard disk (and, when iBridge is enabled, a
// companion SSD with an IBridgeCache), a local file system per device, and a
// NIC.  The server handles decomposed sub-requests concurrently — like
// pvfs2-server's asynchronous Trove I/O, serialization happens in the device
// queues, not at the request handler.
//
// Three storage configurations cover the paper's comparisons:
//   * stock      — disk only (IBridgeConfig::enabled == false);
//   * iBridge    — disk + SSD cache (the contribution);
//   * SSD-only   — datafiles live directly on the SSD (Figure 10 baseline).
#pragma once

#include <coroutine>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cache.hpp"
#include "core/config.hpp"
#include "fsim/filesystem.hpp"
#include "net/network.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "stats/meters.hpp"
#include "storage/calibration.hpp"
#include "storage/hdd.hpp"
#include "storage/ssd.hpp"

namespace ibridge::pvfs {

enum class StorageMode { kDisk, kSsdOnly };

struct DataServerConfig {
  storage::HddParams hdd = storage::paper_hdd();
  storage::SsdParams ssd = storage::paper_ssd();
  core::IBridgeConfig ibridge = core::IBridgeConfig::stock();
  fsim::DataMode data_mode = fsim::DataMode::kTimingOnly;
  StorageMode storage_mode = StorageMode::kDisk;
  /// OS page size for read-modify-write on the datafile systems: sub-page
  /// writes read the boundary pages first.  Applies to the datafiles on
  /// disk and (in SSD-only mode) on the SSD; iBridge's log file is packed
  /// and flushed in whole pages, so it is exempt — that asymmetry is the
  /// Figure 10 effect.  Zero disables.
  sim::Bytes rmw_page_bytes{4096};
};

class DataServer {
 public:
  /// `profile` is the offline-learned seek curve for this server's disk
  /// model (needed only when iBridge is enabled).
  DataServer(sim::Simulator& sim, sim::ServerId id,
             const DataServerConfig& cfg, net::Nic& nic,
             storage::SeekProfile profile = {});

  DataServer(const DataServer&) = delete;
  DataServer& operator=(const DataServer&) = delete;
  ~DataServer();

  sim::ServerId id() const { return id_; }
  net::Nic& nic() { return nic_; }

  /// The simulator this server's events run on — its own shard in a
  /// sharded cluster, the cluster-wide simulator otherwise.
  sim::Simulator& sim() { return sim_; }

  /// Create this server's datafile for a striped logical file.
  fsim::FileId create_datafile(const std::string& name, sim::Bytes prealloc);

  /// Handle one sub-request (already decomposed and tagged by the client).
  sim::Task<core::ServeResult> io(core::CacheRequest req,
                                  std::span<const std::byte> wdata,
                                  std::span<std::byte> rdata);

  /// Flush iBridge's dirty cached data to the disk (end-of-run accounting).
  sim::Task<> drain();

  /// Current decayed average disk service time T (ms); 0 when stock.
  double current_t() const { return cache_ ? cache_->current_t() : 0.0; }
  void set_board(const core::TBoard& board) {
    if (cache_) cache_->set_board(board);
  }

  bool has_cache() const { return cache_ != nullptr; }
  core::IBridgeCache* cache() { return cache_.get(); }
  const core::IBridgeCache* cache() const { return cache_.get(); }

  /// Attach a SimCheck observer to this server's cache (no-op when stock).
  void set_observer(core::CacheObserver* obs) {
    if (cache_) cache_->set_observer(obs);
  }

  /// Attach a TraceSession (nullptr to detach): queue/serve spans for every
  /// traced sub-request, device dispatch spans, in-flight depth counter.
  void set_trace(obs::TraceSession* session);

  /// Attach a SimProfiler (nullptr to detach): request-handling events mark
  /// the "server" category, devices mark "disk"/"ssd" and the cache marks
  /// "cache".  Wire before the run — category interning allocates.
  void set_profiler(obs::SimProfiler* profiler);

  /// Take the server off the network (crashed) or bring it back.  While
  /// offline, newly arriving io() calls park before touching any server
  /// state and resume — in arrival order — when the server returns; their
  /// outage wait is part of the measured service time, exactly what a
  /// client of a crashed-and-restarted server observes.  Requests already
  /// past the entry gate when the crash hits run to completion (the fault
  /// engine waits for inflight() to reach zero before acting on state).
  void set_offline(bool offline);
  bool offline() const { return offline_; }
  /// Requests between io()'s entry gate and exit (parked arrivals excluded).
  int inflight() const { return inflight_; }

  storage::BlockDevice& disk() { return *disk_; }
  const storage::BlockDevice& disk() const { return *disk_; }
  storage::BlockDevice* ssd() { return ssd_.get(); }
  const storage::BlockDevice* ssd() const { return ssd_.get(); }
  /// Concrete SSD model, for the fault engine's set_fault_hook (nullptr on
  /// disk-only servers).
  storage::SsdModel* ssd_model() { return ssd_.get(); }
  fsim::LocalFileSystem& fs() { return *primary_fs_; }
  /// Service times of every completed sub-request (its count() is the
  /// server's served operations).
  const stats::ServiceTimeMeter& service_meter() const { return service_; }

  /// Total payload bytes this server has served.
  sim::Bytes bytes_served() const { return bytes_served_; }

 private:
  sim::Simulator& sim_;
  sim::ServerId id_;
  net::Nic& nic_;
  sim::Semaphore io_slots_;
  std::unique_ptr<storage::HddModel> disk_;
  std::unique_ptr<storage::SsdModel> ssd_;
  std::unique_ptr<fsim::LocalFileSystem> disk_fs_;
  std::unique_ptr<fsim::LocalFileSystem> ssd_fs_;
  fsim::LocalFileSystem* primary_fs_ = nullptr;  // where datafiles live
  std::unique_ptr<core::IBridgeCache> cache_;
  stats::ServiceTimeMeter service_;
  sim::Bytes bytes_served_;
  obs::TraceSession* trace_ = nullptr;
  obs::TrackId trace_track_ = obs::kNoTrack;
  obs::SimProfiler* profiler_ = nullptr;
  int prof_cat_ = 0;
  std::string trace_prefix_;  ///< "srv<N>", counter-name prefix
  int inflight_ = 0;          ///< requests between io() entry and exit
  bool offline_ = false;
  /// io() coroutines parked at the entry gate while the server is offline.
  std::vector<std::coroutine_handle<>> offline_waiters_;
};

}  // namespace ibridge::pvfs
