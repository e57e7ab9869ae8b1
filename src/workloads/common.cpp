#include "workloads/common.hpp"

namespace ibridge::workloads {

WorkloadResult run_ranks(cluster::Cluster& cluster,
                         const std::string& file_name, std::int64_t file_bytes,
                         int nprocs, const Tally& tally,
                         const RankBody& body) {
  cluster.restart_daemons();
  auto fh = cluster.create_file(file_name, file_bytes);
  mpiio::MpiFile file(cluster.client(), fh);

  mpiio::MpiEnvironment env(cluster.sim(), cluster.client(), nprocs);
  const sim::SimTime t0 = cluster.sim().now();
  env.launch([&](mpiio::MpiContext ctx) { return body(ctx, file); });
  cluster.sim().run_while_pending([&] { return env.finished(); });
  const sim::SimTime io_done = cluster.sim().now();
  const sim::SimTime flushed = cluster.drain();

  WorkloadResult r;
  r.io_elapsed = io_done - t0;
  r.elapsed = flushed - t0;
  r.bytes = tally.bytes;
  r.requests = tally.requests;
  r.avg_request_ms = tally.request_ms.mean();
  return r;
}

}  // namespace ibridge::workloads
