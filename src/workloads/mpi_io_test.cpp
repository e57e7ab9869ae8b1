#include "workloads/mpi_io_test.hpp"

#include <algorithm>

namespace ibridge::workloads {

namespace {

/// Iterations each process runs: the accessed bytes (capped at the file)
/// past the shift, in whole rounds of nprocs requests; at least one.
std::int64_t iterations_of(const MpiIoTestConfig& cfg) {
  const std::int64_t accessible =
      cfg.access_bytes > 0 ? std::min(cfg.access_bytes, cfg.file_bytes)
                           : cfg.file_bytes;
  const std::int64_t per_iter =
      static_cast<std::int64_t>(cfg.nprocs) * cfg.request_size;
  return std::max<std::int64_t>(1, (accessible - cfg.offset_shift) / per_iter);
}

}  // namespace

sim::Task<> mpi_io_test_rank(mpiio::MpiContext ctx, mpiio::MpiFile file,
                             MpiIoTestConfig cfg, MpiIoTestTally* tally) {
  const int n = ctx.size();
  const std::int64_t s = cfg.request_size;
  const std::int64_t iterations = iterations_of(cfg);
  for (std::int64_t k = 0; k < iterations; ++k) {
    const std::int64_t offset =
        k * n * s + static_cast<std::int64_t>(ctx.rank()) * s +
        cfg.offset_shift;
    if (offset + s > file.size() && !cfg.write) break;
    sim::SimTime t;
    if (cfg.write) {
      t = co_await file.write_at(ctx.rank(), offset, s);
    } else {
      t = co_await file.read_at(ctx.rank(), offset, s);
    }
    tally->request_ms.add(t.to_millis());
    tally->bytes += s;
    ++tally->requests;
    if (cfg.barrier_each_iteration) co_await ctx.barrier();
  }
  tally->done = ctx.sim().now();
}

WorkloadResult run_mpi_io_test(cluster::Cluster& cluster,
                               const MpiIoTestConfig& cfg) {
  cluster.restart_daemons();
  auto fh = cluster.create_file(cfg.file_name, cfg.file_bytes);
  mpiio::MpiFile file(cluster.client(), fh);

  MpiIoTestTally tally;
  mpiio::MpiEnvironment env(cluster.sim(), cluster.client(), cfg.nprocs);
  const sim::SimTime t0 = cluster.sim().now();
  env.launch([&](mpiio::MpiContext ctx) {
    return mpi_io_test_rank(ctx, file, cfg, &tally);
  });
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
