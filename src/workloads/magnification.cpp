#include "workloads/magnification.hpp"

#include "mpiio/mpi.hpp"
#include "sim/rng.hpp"

namespace ibridge::workloads {

namespace {

constexpr int kRequesters = 16;
constexpr int kInterferers = 4;

// The shared file.  8 GB holds the interferers' deepest stripe (10,000 x
// servers x unit, about 5.2 GB at 8 servers of 64 KiB units).
constexpr std::int64_t kFileBytes = 8'000'000'000;

/// `wrap` is the last stripe boundary in the file, so every request starts
/// on a stripe boundary and its fragment stays on server k.
sim::Task<> requester(mpiio::MpiContext ctx, mpiio::MpiFile file,
                      MagnificationConfig cfg, std::int64_t req_bytes,
                      std::int64_t region, std::int64_t wrap) {
  for (std::int64_t i = 0; i < cfg.requests; ++i) {
    const std::int64_t off = (i * ctx.size() + ctx.rank()) * region % wrap;
    co_await file.read_at(ctx.rank(), off, req_bytes);
    if (cfg.barrier) co_await ctx.barrier();
  }
}

/// Random whole stripe units that all live on `target_server`: stripe
/// indices congruent to the target modulo the server count.
sim::Task<> interferer(mpiio::MpiContext ctx, mpiio::MpiFile file,
                       int target_server, int servers, std::int64_t unit,
                       std::int64_t iters, sim::Rng rng) {
  for (std::int64_t i = 0; i < iters; ++i) {
    const std::int64_t stripe = static_cast<std::int64_t>(
        rng.below(10'000) * static_cast<std::uint64_t>(servers) +
        static_cast<std::uint64_t>(target_server));
    co_await file.read_at(ctx.rank(), stripe * unit, unit);
  }
}

}  // namespace

WorkloadResult run_magnification(cluster::Cluster& cluster,
                                 const MagnificationConfig& cfg) {
  const cluster::ClusterConfig& cc = cluster.config();
  const std::int64_t unit = cc.stripe_unit;
  const std::int64_t req_bytes = cfg.request_bytes(unit);
  const std::int64_t region = cc.data_servers * unit;
  const std::int64_t wrap = kFileBytes / region * region;
  auto fh = cluster.create_file("data", kFileBytes);
  mpiio::MpiFile file(cluster.client(), fh);

  mpiio::MpiEnvironment group(cluster.sim(), cluster.client(), kRequesters);
  mpiio::MpiEnvironment noise(cluster.sim(), cluster.client(), kInterferers);
  const sim::SimTime t0 = cluster.sim().now();
  group.launch([&](mpiio::MpiContext ctx) {
    return requester(ctx, file, cfg, req_bytes, region, wrap);
  });
  sim::Rng seed_gen(77);
  noise.launch([&](mpiio::MpiContext ctx) {
    return interferer(ctx, file, cfg.k % cc.data_servers, cc.data_servers,
                      unit, cfg.requests * 2, seed_gen.fork());
  });
  cluster.sim().run_while_pending([&] { return group.finished(); });
  const sim::SimTime io_done = cluster.sim().now();
  const sim::SimTime flushed = cluster.drain();

  WorkloadResult r;
  r.io_elapsed = io_done - t0;
  r.elapsed = flushed - t0;
  r.requests = static_cast<std::uint64_t>(kRequesters * cfg.requests);
  r.bytes = kRequesters * cfg.requests * req_bytes;
  return r;
}

}  // namespace ibridge::workloads
