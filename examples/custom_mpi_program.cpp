// Example: writing your own MPI-IO program against the simulator.
//
// Shows the coroutine client API directly: ranks as coroutines, barriers,
// independent read/write at explicit offsets, and scraping per-server stats
// afterwards.  The program implements a two-phase pattern common in
// adaptive-mesh codes: every rank appends a variable-size block (unaligned
// on purpose), a barrier, then everyone reads its left neighbour's block.
//
//   ./examples/custom_mpi_program
//
// NOTE: rank bodies must not be *capturing lambda* coroutines — a lambda
// coroutine's frame references the closure, which dies when launch()
// returns.  Use a free function (as below) or a capture-free lambda and
// pass state through parameters.
#include <cstdio>
#include <vector>

#include "cluster/cluster.hpp"
#include "mpiio/mpi.hpp"

using namespace ibridge;

namespace {

struct Blocks {
  std::vector<std::int64_t> offset;
  std::vector<std::int64_t> size;
};

sim::Task<> rank_body(mpiio::MpiContext ctx, mpiio::MpiFile file,
                      const Blocks* blocks, stats::Summary* read_ms) {
  const int r = ctx.rank();

  // Phase 1: every rank writes its (unaligned) block.
  co_await file.write_at(r, blocks->offset[static_cast<size_t>(r)],
                         blocks->size[static_cast<size_t>(r)]);

  // Phase 2: synchronize, then read the left neighbour's block.
  co_await ctx.barrier();
  const int left = (r + ctx.size() - 1) % ctx.size();
  const sim::SimTime t =
      co_await file.read_at(r, blocks->offset[static_cast<size_t>(left)],
                            blocks->size[static_cast<size_t>(left)]);
  read_ms->add(t.to_millis());
}

}  // namespace

int main() {
  constexpr int kRanks = 32;
  cluster::Cluster c(cluster::ClusterConfig::with_ibridge());
  auto fh = c.create_file("mesh.dat", 1LL << 30);
  mpiio::MpiFile file(c.client(), fh);

  // Variable block sizes -> deliberately unaligned layout.
  Blocks blocks;
  std::int64_t cursor = 0;
  sim::Rng rng(2024);
  for (int r = 0; r < kRanks; ++r) {
    const std::int64_t size = 48 * 1024 + rng.uniform(0, 40 * 1024);
    blocks.offset.push_back(cursor);
    blocks.size.push_back(size);
    cursor += size;
  }

  stats::Summary read_ms;
  mpiio::MpiEnvironment env(c.sim(), c.client(), kRanks);
  env.launch([&](mpiio::MpiContext ctx) {
    return rank_body(ctx, file, &blocks, &read_ms);
  });
  c.sim().run_while_pending([&] { return env.finished(); });
  // drain()'s return value, not sim().now(): the clock keeps running past
  // the last flush while idle daemons wake up.
  const sim::SimTime finished = c.drain();

  std::printf("exchange of %d unaligned blocks finished at t=%s\n", kRanks,
              finished.to_string().c_str());
  std::printf("neighbour-read latency: mean %.2f ms, max %.2f ms\n",
              read_ms.mean(), read_ms.max());
  for (int s = 0; s < c.server_count(); ++s) {
    const auto* cache = c.server(s).cache();
    std::printf(
        "  server %d: %5.1f MB served, %4.1f MB via SSD, T=%.2f ms\n", s,
        static_cast<double>(c.server(s).bytes_served().count()) / 1e6,
        static_cast<double>(cache->stats().ssd_bytes_served.count()) / 1e6,
        c.server(s).current_t());
  }
  return 0;
}
