// Shared result types and the driver tail every workload runs through.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "cluster/cluster.hpp"
#include "mpiio/mpi.hpp"
#include "sim/time.hpp"
#include "stats/histogram.hpp"

namespace ibridge::workloads {

/// Outcome of one workload execution on a cluster.
struct WorkloadResult {
  sim::SimTime elapsed;            ///< wall time incl. final write-back drain
  sim::SimTime io_elapsed;         ///< wall time of the access phase only
  std::int64_t bytes = 0;          ///< payload bytes moved
  double avg_request_ms = 0.0;     ///< mean client-observed request time
  std::uint64_t requests = 0;

  /// Aggregate throughput in MB/s (decimal MB, as the paper plots), with
  /// the end-of-run write-back drain included, as the paper measures ("we
  /// include ... the time for writing dirty data back").
  double mbps() const {
    const double s = elapsed.to_seconds();
    return s > 0 ? static_cast<double>(bytes) / 1e6 / s : 0.0;
  }
};

/// What the ranks of one workload run add up while they execute.
struct Tally {
  stats::Summary request_ms;
  std::int64_t bytes = 0;
  std::uint64_t requests = 0;
  sim::SimTime done;  ///< when the last rank finished

  /// Count one completed request of `length` bytes that took `took`.
  void add(sim::SimTime took, std::int64_t length) {
    request_ms.add(took.to_millis());
    bytes += length;
    ++requests;
  }
};

/// One rank of a workload, given its file.
using RankBody = std::function<sim::Task<>(mpiio::MpiContext, mpiio::MpiFile)>;

/// The driver every workload shares: restart the daemons a previous drain()
/// stopped, open `file_name` (created on first use with `file_bytes`),
/// launch `nprocs` ranks of `body`, run until all finish, then drain() —
/// write-back time is part of `elapsed`, as the paper measures — and report
/// what the ranks added to `tally`.
WorkloadResult run_ranks(cluster::Cluster& cluster,
                         const std::string& file_name, std::int64_t file_bytes,
                         int nprocs, const Tally& tally, const RankBody& body);

}  // namespace ibridge::workloads
