// Quickstart: the paper's headline effect in ~50 lines.
//
// Builds an 8-server simulated PVFS2 cluster and runs the mpi-io-test
// workload: aligned (64 KB) vs unaligned (65 KB) writes on the stock
// system, then the unaligned run again with iBridge enabled.  Unaligned
// access craters stock throughput; iBridge recovers a large share of it by
// serving the request fragments from the SSDs.  (Reads benefit too, but
// only once the cache is warm from earlier runs — see
// examples/checkpoint_replay.cpp.)
//
//   ./examples/quickstart
#include <cstdio>

#include "cluster/cluster.hpp"
#include "workloads/mpi_io_test.hpp"

using namespace ibridge;

namespace {

struct Result {
  double io_mbps;     ///< access phase
  double total_mbps;  ///< including the final write-back drain (the
                      ///< paper's conservative accounting)
};

Result run(const cluster::ClusterConfig& cc, std::int64_t request_size) {
  cluster::Cluster c(cc);
  workloads::MpiIoTestConfig w;
  w.nprocs = 64;
  w.request_size = request_size;
  w.file_bytes = 10LL * 1000 * 1000 * 1000;
  w.access_bytes = 400LL * 1000 * 1000;
  w.write = true;
  const auto r = run_mpi_io_test(c, w);
  return {static_cast<double>(r.bytes) / 1e6 / r.io_elapsed.to_seconds(),
          r.mbps()};
}

}  // namespace

int main() {
  std::printf("iBridge quickstart: 8 data servers, 64 KB striping, "
              "64 processes, writes\n\n");

  const Result aligned = run(cluster::ClusterConfig::stock(), 64 * 1024);
  std::printf("  stock,   64 KB aligned requests : %7.1f MB/s\n",
              aligned.io_mbps);

  const Result unaligned = run(cluster::ClusterConfig::stock(), 65 * 1024);
  std::printf(
      "  stock,   65 KB unaligned        : %7.1f MB/s  (%.0f%% of aligned)\n",
      unaligned.io_mbps, 100.0 * unaligned.io_mbps / aligned.io_mbps);

  const Result bridged =
      run(cluster::ClusterConfig::with_ibridge(), 65 * 1024);
  std::printf(
      "  iBridge, 65 KB unaligned        : %7.1f MB/s  (%+.0f%% vs stock; "
      "%+.0f%% counting the\n"
      "                                    end-of-run flush of cached "
      "fragments to the disks)\n",
      bridged.io_mbps, 100.0 * (bridged.io_mbps / unaligned.io_mbps - 1.0),
      100.0 * (bridged.total_mbps / unaligned.total_mbps - 1.0));

  std::printf("\nfragments served from the SSDs bridge the gap between "
              "unaligned and aligned access.\n");
  return 0;
}
