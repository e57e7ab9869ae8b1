// The mpi-io-test benchmark (PVFS2's sequential-throughput test).
//
// N processes iteratively access a shared striped file: at iteration k,
// process i accesses one segment of size s at offset k*N*s + i*s (+ an
// optional constant shift, the paper's "+x KB" Pattern III variant).  The
// paper removes the barrier between iterations so requests from different
// processes overlap freely; a barrier option is kept for the Figure 3
// synchronization study.  Requests are all reads or all writes.
#pragma once

#include <cstdint>
#include <string>

#include "mpiio/mpi.hpp"
#include "stats/histogram.hpp"
#include "workloads/common.hpp"

namespace ibridge::workloads {

struct MpiIoTestConfig {
  int nprocs = 64;
  std::int64_t request_size = 64 * 1024;
  std::int64_t offset_shift = 0;     ///< "+x KB" request offset
  std::int64_t file_bytes = 10LL * 1000 * 1000 * 1000;
  std::int64_t access_bytes = 0;     ///< 0 = sweep the whole file once
  bool write = false;
  bool barrier_each_iteration = false;
  std::string file_name = "mpi-io-test.dat";
};

/// Run the benchmark on a freshly created file in `cluster`; returns after
/// drain() (write-back time included in `elapsed`, as the paper measures).
WorkloadResult run_mpi_io_test(cluster::Cluster& cluster,
                               const MpiIoTestConfig& cfg);

/// What the ranks of one mpi-io-test run add up while they execute.
struct MpiIoTestTally {
  stats::Summary request_ms;
  std::int64_t bytes = 0;
  std::uint64_t requests = 0;
  sim::SimTime done;  ///< when the last rank finished
};

/// One mpi-io-test process over `file`.  run_mpi_io_test launches one per
/// process; Figure 12 runs them beside BTIO ranks on one cluster.
sim::Task<> mpi_io_test_rank(mpiio::MpiContext ctx, mpiio::MpiFile file,
                             MpiIoTestConfig cfg, MpiIoTestTally* tally);

}  // namespace ibridge::workloads
