#include "workloads/ior_mpi_io.hpp"

#include <algorithm>

#include "mpiio/mpi.hpp"

namespace ibridge::workloads {

namespace {

sim::Task<> rank_body(mpiio::MpiContext ctx, mpiio::MpiFile file,
                      IorMpiIoConfig cfg, std::int64_t chunk_bytes,
                      std::int64_t sweep_bytes, Tally* tally) {
  const std::int64_t base =
      static_cast<std::int64_t>(ctx.rank()) * chunk_bytes;
  for (std::int64_t pos = 0; pos < sweep_bytes;) {
    const std::int64_t len =
        std::min(cfg.request_size, chunk_bytes - pos);
    if (len <= 0) break;
    sim::SimTime t;
    if (cfg.write) {
      t = co_await file.write_at(ctx.rank(), base + pos, len);
    } else {
      t = co_await file.read_at(ctx.rank(), base + pos, len);
    }
    tally->add(t, len);
    pos += len;
  }
}

}  // namespace

WorkloadResult run_ior_mpi_io(cluster::Cluster& cluster,
                              const IorMpiIoConfig& cfg) {
  const std::int64_t chunk = cfg.file_bytes / cfg.nprocs;
  const std::int64_t sweep =
      cfg.access_bytes > 0
          ? std::min(chunk, cfg.access_bytes / cfg.nprocs)
          : chunk;

  Tally tally;
  return run_ranks(cluster, cfg.file_name, cfg.file_bytes, cfg.nprocs, tally,
                   [&](mpiio::MpiContext ctx, mpiio::MpiFile file) {
                     return rank_body(ctx, file, cfg, chunk, sweep, &tally);
                   });
}

}  // namespace ibridge::workloads
