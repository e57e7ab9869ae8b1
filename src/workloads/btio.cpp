#include "workloads/btio.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace ibridge::workloads {

namespace {

constexpr std::int64_t kVarBytes = 5 * 8;  // 5 doubles per grid point

int int_sqrt(int p) {
  const int s = static_cast<int>(std::lround(std::sqrt(static_cast<double>(p))));
  if (p <= 0 || s * s != p) {
    throw std::invalid_argument(
        "BTIO requires a positive square process count, got " +
        std::to_string(p));
  }
  return s;
}

}  // namespace

sim::Task<> btio_rank(mpiio::MpiContext ctx, mpiio::MpiFile file,
                      BtIoConfig cfg, BtIoTally* tally) {
  const int sq = int_sqrt(cfg.nprocs);
  const int cw = cfg.grid / sq;  // cell width (contiguous run, grid points)
  const int pi = ctx.rank() % sq;
  const int pj = ctx.rank() / sq;
  const std::int64_t run_bytes = static_cast<std::int64_t>(cw) * kVarBytes;
  const std::int64_t row_stride =
      static_cast<std::int64_t>(cfg.grid) * kVarBytes;
  const std::int64_t plane_stride = row_stride * cfg.grid;
  const std::int64_t dump_bytes =
      plane_stride * cfg.grid;  // nominal full-grid dump

  const sim::SimTime compute_per_step =
      sim::SimTime::from_seconds(cfg.compute_ms_per_step / 1e3);

  std::int64_t dump_index = 0;
  for (int step = 0; step < cfg.time_steps; ++step) {
    co_await ctx.compute(compute_per_step);
    tally->compute_total += compute_per_step;
    if ((step + 1) % cfg.write_interval != 0) continue;

    // Append this process's sub-domain of the solution array: one
    // contiguous run per (k, j) row it owns.
    const std::int64_t dump_base = dump_index * dump_bytes;
    for (int k = 0; k < cfg.grid; ++k) {
      for (int j = pj * cw; j < (pj + 1) * cw; ++j) {
        const std::int64_t offset =
            dump_base + k * plane_stride + j * row_stride +
            static_cast<std::int64_t>(pi) * cw * kVarBytes;
        const sim::SimTime t =
            co_await file.write_at(ctx.rank(), offset, run_bytes);
        tally->add(t, run_bytes);
        tally->io_time_total += t;
      }
    }
    ++dump_index;
    // BT synchronizes between time steps.
    co_await ctx.barrier();
  }
  tally->done = ctx.sim().now();
}

std::int64_t BtIoConfig::request_bytes() const {
  const int sq = int_sqrt(nprocs);
  return static_cast<std::int64_t>(grid / sq) * kVarBytes;
}

BtIoResult run_btio(cluster::Cluster& cluster, const BtIoConfig& cfg) {
  // Checked before any rank launches: a throw inside a rank coroutine
  // would terminate the process instead of reaching the caller.
  int_sqrt(cfg.nprocs);
  const int dumps = cfg.time_steps / cfg.write_interval;
  BtIoTally tally;
  const WorkloadResult run = run_ranks(
      cluster, cfg.file_name, cfg.dump_bytes() * (dumps + 1), cfg.nprocs,
      tally, [&](mpiio::MpiContext ctx, mpiio::MpiFile file) {
        return btio_rank(ctx, file, cfg, &tally);
      });
  return {run, tally.io_time_total / cfg.nprocs,
          tally.compute_total / cfg.nprocs};
}

}  // namespace ibridge::workloads
