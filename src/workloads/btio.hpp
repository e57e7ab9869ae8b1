// BTIO: the NAS Parallel Benchmarks BT solver's MPI-IO output stage.
//
// BT solves the 3D compressible Navier-Stokes equations on an n^3 grid
// partitioned over sqrt(P) x sqrt(P) process columns; every `write_interval`
// time steps each process appends its sub-domain of the 5-variable solution
// array to a shared file.  The contiguous runs a process writes are
// cell_width * 5 * sizeof(double) bytes — 2160 B at 9 processes and 640 B at
// 100 processes for the class-C 162^3 grid, matching the paper — scattered
// with large strides, i.e. a stream of regular random requests.
//
// The simulated program alternates compute phases (calibrated per step) with
// the I/O dump, so both total execution time and I/O time are reported
// (Figures 9-11).
#pragma once

#include <cstdint>
#include <string>

#include "mpiio/mpi.hpp"
#include "stats/histogram.hpp"
#include "workloads/common.hpp"

namespace ibridge::workloads {

struct BtIoConfig {
  int nprocs = 64;       ///< a perfect square (BT requirement); run_btio
                         ///< throws std::invalid_argument otherwise
  int grid = 162;        ///< class C
  int time_steps = 40;   ///< class C default; lower for faster runs
  int write_interval = 1;
  double compute_ms_per_step = 450.0;  ///< per-process compute per step
  std::string file_name = "btio.dat";

  /// Bytes of one full solution dump (all processes).
  std::int64_t dump_bytes() const {
    return static_cast<std::int64_t>(grid) * grid * grid * 5 * 8;
  }
  /// Contiguous run length one process writes (the request size).
  std::int64_t request_bytes() const;
};

struct BtIoResult : WorkloadResult {
  sim::SimTime io_time;       ///< per-process average time blocked in I/O
  sim::SimTime compute_time;  ///< per-process compute time
};

BtIoResult run_btio(cluster::Cluster& cluster, const BtIoConfig& cfg);

/// What the ranks of one BTIO run add up while they execute.
struct BtIoTally {
  stats::Summary request_ms;
  std::int64_t bytes = 0;
  std::uint64_t requests = 0;
  sim::SimTime io_time_total;  ///< summed over ranks
  sim::SimTime compute_total;  ///< summed over ranks
  sim::SimTime done;           ///< when the last rank finished
};

/// One BTIO process: compute phases and solution dumps into `file`, a file
/// of at least dump_bytes() * (time_steps / write_interval + 1) bytes.
/// run_btio launches one per process; Figure 12 runs them beside
/// mpi-io-test ranks on one cluster.  cfg.nprocs must be a perfect square
/// (a throw inside a rank terminates the process).
sim::Task<> btio_rank(mpiio::MpiContext ctx, mpiio::MpiFile file,
                      BtIoConfig cfg, BtIoTally* tally);

}  // namespace ibridge::workloads
