// PVFS client: request decomposition, fragment tagging, sub-request fan-out.
//
// Client::read_at / write_at implement the client side of a parallel file
// system request: decompose the logical byte range over the striping layout
// (io_datafile_setup_msgpairs), tag fragments and attach sibling-server ids
// (the iBridge client-side component), then issue every sub-request to its
// data server concurrently and wait for the slowest one — the synchronous-
// request semantics whose tail latency the paper attacks.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/tagger.hpp"
#include "net/network.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "pvfs/layout.hpp"
#include "pvfs/metadata.hpp"
#include "pvfs/server.hpp"
#include "sim/buffer_pool.hpp"
#include "sim/rng.hpp"
#include "sim/sync.hpp"

namespace ibridge::pvfs {

struct ClientConfig {
  /// Client-side fragment tagging (on when iBridge is deployed; harmless
  /// but useless when servers are stock).
  bool tag_fragments = true;
  std::int64_t fragment_threshold = 20 * 1024;
  /// MPI processes per client node (one NIC per node).
  int procs_per_node = 48;
  /// Per-request client-side setup cost (MPI-IO stack, VFS entry, kernel
  /// scheduling), drawn uniformly from [min, max].  The jitter is what
  /// desynchronizes concurrent ranks — without it the simulated processes
  /// stay in lockstep and the data servers see an unrealistically perfect
  /// sequential stream.
  double overhead_min_us = 400.0;
  double overhead_max_us = 1400.0;
  std::uint64_t seed = 0x5eed;
};

class Client {
 public:
  /// Throws std::invalid_argument when `servers` or `node_nics` is empty.
  Client(sim::Simulator& sim, MetadataServer& mds,
         std::vector<DataServer*> servers, net::NetworkModel& net,
         std::vector<net::Nic*> node_nics, ClientConfig cfg = {});

  /// Synchronous request from `rank`: completes when the slowest
  /// sub-request completes.  Returns the request's service time.  Throws
  /// std::invalid_argument when `length` is not positive.
  sim::Task<sim::SimTime> read_at(int rank, FileHandle fh, std::int64_t offset,
                                  std::int64_t length,
                                  std::span<std::byte> data = {});
  sim::Task<sim::SimTime> write_at(int rank, FileHandle fh,
                                   std::int64_t offset, std::int64_t length,
                                   std::span<const std::byte> data = {});

  MetadataServer& mds() { return mds_; }
  net::NetworkModel& network() { return net_; }

  /// NIC of the client node hosting `rank` (used by collective I/O for
  /// shuffle-phase transfer accounting).
  net::Nic& rank_nic(int rank) { return nic_of_rank(rank); }

  /// Payload bytes moved by completed requests (throughput accounting).
  std::int64_t bytes_completed() const { return bytes_completed_; }

  /// Attach a TraceSession (nullptr to detach).  Every subsequent request
  /// records a span tree: request -> setup + per-sub-request sub spans,
  /// each sub linking its net transfers and the server-side spans.
  void set_trace(obs::TraceSession* session) { trace_ = session; }

  /// Attach a SimProfiler (nullptr to detach).  Request issue and join
  /// events mark their simulator events with `category` ("client").
  void set_profiler(obs::SimProfiler* profiler, int category) {
    profiler_ = profiler;
    prof_cat_ = category;
  }

 private:
  sim::Task<sim::SimTime> request(int rank, FileHandle fh, std::int64_t offset,
                                  std::int64_t length,
                                  storage::IoDirection dir,
                                  std::span<const std::byte> wdata,
                                  std::span<std::byte> rdata);

  /// One sub-request round trip: ship it to the server, serve, return data.
  /// `request_id`/`sub_span` are the trace linkage (0 when untraced).
  sim::Task<> subrequest(int rank, const LogicalFile& f,
                         core::TaggedSubRequest sub, std::int64_t parent_off,
                         storage::IoDirection dir,
                         std::span<const std::byte> wdata,
                         std::span<std::byte> rdata, obs::RequestId request_id,
                         obs::SpanId sub_span);

  net::Nic& nic_of_rank(int rank) {
    return *node_nics_[static_cast<std::size_t>(rank / cfg_.procs_per_node) %
                       node_nics_.size()];
  }

  sim::Simulator& sim_;
  MetadataServer& mds_;
  std::vector<DataServer*> servers_;
  net::NetworkModel& net_;
  std::vector<net::Nic*> node_nics_;
  ClientConfig cfg_;
  core::FragmentTagger tagger_;
  // Decompose/tag scratch.  The leases live only inside request()'s
  // suspension-free setup section, so at most one request per shard holds
  // one at a time: two warm buffers serve any number of in-flight ranks.
  sim::VectorPool<SubRequestSpec> piece_pool_;
  sim::VectorPool<core::TaggedSubRequest> tagged_pool_;
  sim::Rng rng_;
  std::int64_t bytes_completed_ = 0;
  obs::TraceSession* trace_ = nullptr;
  obs::SimProfiler* profiler_ = nullptr;
  int prof_cat_ = 0;
};

}  // namespace ibridge::pvfs
