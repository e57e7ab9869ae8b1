// Cluster assembly: one call wires devices, file systems, servers, metadata
// server, network and client into a runnable simulated parallel I/O system.
//
// This mirrors the paper's testbed: N data servers (8 by default), one
// metadata server, MPI client nodes, a 64 KB striping unit, and — when
// iBridge is enabled — a profiled disk model, a 10 GB SSD cache per server
// and the T-value board daemon.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "pvfs/client.hpp"
#include "pvfs/metadata.hpp"
#include "pvfs/server.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/units.hpp"
#include "storage/profiler.hpp"

namespace ibridge::cluster {

struct ClusterConfig {
  int data_servers = 8;
  std::int64_t stripe_unit = 64 * 1024;
  int client_nodes = 12;  ///< NICs on the client side
  int procs_per_node = 48;

  /// Simulation core.  0 (default): the classic single simulator —
  /// byte-identical to every run before sharding existed.  1: the sharded
  /// windowed core (sim::ShardGroup): shard 0 runs the client/MDS side and
  /// shard 1 + i / shard_group_size runs data server i.  Its timing model
  /// differs from the classic core's, so the two are different
  /// configurations.  Requires positive network latency (the barrier
  /// lookahead).  The constructor throws std::invalid_argument for any
  /// other value or a zero-latency network.
  int shards = 0;

  /// Data servers per logical shard when sharded (clamped to >= 1).  With
  /// G > 1 hundreds of servers map onto a handful of shards — the scale
  /// tier's memory lever.  Grouping is part of the *configuration*
  /// (like the stripe unit): different groupings batch cross-shard merges
  /// differently and may legitimately order same-tick ties differently.
  int shard_group_size = 1;

  /// Adaptive barrier-window cap in microseconds (0 = off).  When positive
  /// it must be >= the network wire latency; windows then widen up to this
  /// bound while other shards are idle or far in the future — fewer
  /// barriers on sparse timelines.  See sim::ShardGroup::set_adaptive_window
  /// for the safety argument.  Also part of the configuration.
  double adaptive_window_us = 0.0;
  pvfs::DataServerConfig server;
  net::NetworkParams network;
  pvfs::ClientConfig client;

  /// Convenience named configurations matching the paper's three systems.
  static ClusterConfig stock();
  static ClusterConfig with_ibridge(core::IBridgeConfig ib = {});
  static ClusterConfig ssd_only();
};

/// The assembled system.  Owns every component; not copyable or movable.
class Cluster {
 public:
  explicit Cluster(const ClusterConfig& cfg);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster();

  /// The driver-facing simulator: shard 0 in a sharded cluster (where the
  /// client, MDS and all run()-family entry points live), the single
  /// simulator otherwise.  run()/run_while_pending() on it transparently
  /// drive the whole shard group.
  sim::Simulator& sim() { return *front_; }

  /// The shard group, or nullptr for a classic-core cluster.
  sim::ShardGroup* shard_group() { return group_.get(); }

  pvfs::Client& client() { return *client_; }
  pvfs::MetadataServer& mds() { return *mds_; }
  pvfs::DataServer& server(int i) { return *servers_[static_cast<size_t>(i)]; }
  int server_count() const { return static_cast<int>(servers_.size()); }
  const ClusterConfig& config() const { return cfg_; }

  /// Create a striped file of `size` bytes (preallocated datafiles).
  /// Returns the existing handle when the name is already registered, so
  /// warm-cache reruns of a workload reuse the file and the iBridge state.
  pvfs::FileHandle create_file(const std::string& name, std::int64_t size);

  /// Restart the periodic daemons (T-board, write-back) that drain() stops.
  /// Workload drivers call this on entry so back-to-back runs on one
  /// cluster — the paper's repeated-execution scenario — behave correctly.
  void restart_daemons();

  /// Flush all iBridge caches to disk and run the simulation until every
  /// pending event drains.  The paper includes this write-back time in its
  /// program execution times.  Returns the simulated time at which the last
  /// dirty byte reached a disk — use this (not sim().now(), which also
  /// absorbs stale daemon timer events) as the program-end timestamp.
  sim::SimTime drain();

  /// Enable block tracing on one server's disk (Figs 2(c-e), 5).
  void enable_disk_trace(int server, bool keep_entries = false);

  /// Attach a SimCheck observer to every iBridge cache in the cluster
  /// (nullptr detaches; no-op on stock/SSD-only clusters).
  void install_observer(core::CacheObserver* obs);

  /// Attach a TraceSession to every layer — client request decomposition,
  /// server queueing/serving, cache operations, device dispatches (nullptr
  /// detaches everywhere).  The session must outlive the cluster or a
  /// subsequent set_trace(nullptr).  Classic core only: throws
  /// std::logic_error for a non-null session on a sharded cluster.
  void set_trace(obs::TraceSession* session);

  /// Attach a SimProfiler to every layer and install one of its lanes as
  /// each simulator's step hook (nullptr detaches everywhere).  Wire before
  /// running — the profiler interns its categories and sizes its per-server
  /// heat tables here.  While attached, collect_metrics() also publishes the
  /// profiler's sim.* / prof.* / srv<N>.prof.* rows.
  void set_profiler(obs::SimProfiler* profiler);

  /// Publish every component's counters into `reg` under the naming scheme
  /// of obs/metrics.hpp: per-server "srv<N>.<subsystem>.<metric>" rows plus
  /// cluster-wide "cache.*" / "cluster.*" aggregates.
  void collect_metrics(obs::MetricsRegistry& reg) const;

  /// Snapshot collect_metrics() into `out` every `interval` of simulated
  /// time until drain() (or stop_metrics_sampler()) is called.  On the
  /// classic core samples are exact simulated-time ticks.  On a sharded
  /// cluster the sampler rides the ShardGroup barrier hook: each sample is
  /// emitted at its grid timestamp once the barrier horizon passes it, so
  /// counter values are those visible at that barrier (they may include up
  /// to one window of events past the grid point).  Both modes are
  /// deterministic.  Throws std::invalid_argument for a null `out` or a
  /// non-positive `interval`.
  void start_metrics_sampler(sim::SimTime interval, obs::TimeSeries* out);
  void stop_metrics_sampler();

  // ---- aggregate metrics over all servers ----
  sim::Bytes total_bytes_served() const;
  sim::Bytes ssd_bytes_served() const;
  sim::Bytes ssd_cached_bytes() const;
  double avg_service_ms() const;

 private:
  void schedule_sample(sim::SimTime interval, obs::TimeSeries* out,
                       std::uint64_t epoch);

  ClusterConfig cfg_;
  sim::Simulator sim_;  ///< the classic single simulator (cfg.shards == 0)
  std::unique_ptr<sim::ShardGroup> group_;  ///< set when cfg.shards == 1
  sim::Simulator* front_ = &sim_;           ///< shard 0 or sim_
  bool sampler_running_ = false;
  std::uint64_t sampler_epoch_ = 0;
  sim::SimTime sampler_next_ = sim::SimTime::zero();  ///< sharded grid cursor
  std::unique_ptr<net::NetworkModel> net_;
  std::vector<net::Nic*> server_nics_;
  std::vector<net::Nic*> client_nics_;
  net::Nic* mds_nic_ = nullptr;
  std::vector<std::unique_ptr<pvfs::DataServer>> servers_;
  std::unique_ptr<pvfs::MetadataServer> mds_;
  std::unique_ptr<pvfs::Client> client_;
  obs::SimProfiler* profiler_ = nullptr;
};

/// Profile the configured disk model offline (scratch simulation) — the
/// seek curve iBridge's Equation (1) uses.  Deterministic for fixed params.
storage::SeekProfile profile_disk(const storage::HddParams& params);

}  // namespace ibridge::cluster
