// Exact allocation counts for the hot functions no bench gate reaches.
//
// bench_simcore, bench_cacheplane and bench_scale count every global
// operator new over their measured windows, which covers the event engine,
// the cache data plane and the stock serve path.  Seven hot functions run
// outside all three windows: fragment tagging, the Equation (3) return
// estimate, the T-board broadcast and the write-back flush run only on
// iBridge clusters (bench_scale's window is stock), the streaming
// classifier only in trace tools, and the batched tick step and the
// barrier merge only on the sharded core.  Each test below warms its
// function once, then counts allocations over repeated calls with the same
// shared counter (bench/alloc_count.hpp) and requires exactly zero.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/alloc_count.hpp"
#include "cluster/cluster.hpp"
#include "core/return_estimator.hpp"
#include "core/service_time.hpp"
#include "core/tagger.hpp"
#include "pvfs/layout.hpp"
#include "pvfs/metadata.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "workloads/trace.hpp"

namespace ibridge {
namespace {

using sim::Bytes;
using sim::Offset;
using sim::ServerId;

constexpr int kCalls = 1000;

TEST(AllocZones, FragmentTaggerTagIntoIsAllocationFree) {
  constexpr int kRing = 8;
  const pvfs::StripingLayout layout(kRing, Bytes{64 * 1024});
  // 65 KB at +10 KB: a 54 KB head and an 11 KB fragment on the next server.
  const auto pieces = layout.decompose(Offset{10 * 1024}, Bytes{65 * 1024});
  const core::FragmentTagger tagger(Bytes{20 * 1024});
  std::vector<core::TaggedSubRequest> out;
  tagger.tag_into(pieces, kRing, out);  // warm: out reaches its capacity
  ASSERT_EQ(out.size(), 2u);
  ASSERT_TRUE(out[1].fragment);

  const std::uint64_t a0 = bench::alloc_count();
  for (int i = 0; i < kCalls; ++i) tagger.tag_into(pieces, kRing, out);
  EXPECT_EQ(bench::alloc_count() - a0, 0u);
}

TEST(AllocZones, ReturnEstimatorEstimateIsAllocationFree) {
  storage::SeekProfile profile({{1000, 0.5}, {2000, 1.0}, {1'000'000, 1.0}});
  profile.set_rotation(sim::SimTime::millis(2));
  profile.set_peak_bandwidth(100e6);
  profile.set_peak_write_bandwidth(100e6);
  core::ServiceTimeModel model(profile, 1.0 / 8.0);
  model.observe_disk(0, Bytes{0}, storage::IoDirection::kRead, 0);
  model.observe_disk(700'000, Bytes{65536}, storage::IoDirection::kRead,
                     700'128);
  const core::ReturnEstimator estimator(true);
  // This server (0) is the slowest of a 3-piece parent: the boost path.
  const core::SiblingSet siblings{ServerId{0}, 3, 3, 0};
  const core::TBoard board{0.0, model.t() - 1.0, model.t() - 2.0};
  const auto estimate = [&] {
    return estimator.estimate(model, 500'000, Bytes{4096},
                              storage::IoDirection::kRead, true, ServerId{0},
                              siblings, board);
  };
  ASSERT_TRUE(estimate().boosted);

  const std::uint64_t a0 = bench::alloc_count();
  double sum = 0.0;
  for (int i = 0; i < kCalls; ++i) sum += estimate().ret_ms;
  EXPECT_EQ(bench::alloc_count() - a0, 0u);
  EXPECT_GT(sum, 0.0);
}

TEST(AllocZones, AccessClassifierAddIsAllocationFree) {
  const workloads::AccessClassifier classifier;
  const std::vector<workloads::TraceRecord> records = {
      {true, 0, 64 * 1024},
      {true, 10 * 1024, 65 * 1024},
      {false, 3 * 1024 * 1024, 4 * 1024},
  };
  workloads::AccessClassifier::Accumulator acc;

  const std::uint64_t a0 = bench::alloc_count();
  for (int i = 0; i < kCalls; ++i) {
    for (const auto& r : records) classifier.add(acc, r);
  }
  EXPECT_EQ(bench::alloc_count() - a0, 0u);
  EXPECT_EQ(acc.requests, static_cast<std::uint64_t>(kCalls) * 3);
  EXPECT_EQ(acc.unaligned, static_cast<std::uint64_t>(kCalls));
}

TEST(AllocZones, SimulatorStepTickIsAllocationFree) {
  constexpr int kTicks = 16;
  constexpr int kPerTick = 8;
  sim::Simulator sim;
  sim.reserve(kTicks * kPerTick);
  std::uint64_t fired = 0;
  const auto fill = [&] {
    for (int t = 0; t < kTicks; ++t) {
      for (int k = 0; k < kPerTick; ++k) {
        sim.schedule(sim::SimTime::nanos(t + 1), [&fired] { ++fired; });
      }
    }
  };
  fill();
  while (sim.step_tick()) {
  }

  std::uint64_t allocs = 0;
  for (int round = 0; round < 10; ++round) {
    fill();
    const std::uint64_t a0 = bench::alloc_count();
    while (sim.step_tick()) {
    }
    allocs += bench::alloc_count() - a0;
  }
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(fired, 11u * kTicks * kPerTick);
}

TEST(AllocZones, BoardBroadcastIsAllocationFree) {
  const cluster::ClusterConfig cfg = cluster::ClusterConfig::with_ibridge();
  const sim::SimTime interval = pvfs::kTReportInterval;
  constexpr int kBroadcasts = 100;
  // An idle cluster: the board daemon (and the write-back daemon's empty
  // wake-ups) are all that run.
  cluster::Cluster c(cfg);
  sim::Simulator& sim = c.sim();
  sim.run_until(sim.now() + interval);  // warm: the first broadcast sizes
                                        // every board
  ASSERT_EQ(c.mds().board().size(),
            static_cast<std::size_t>(cfg.data_servers));

  const std::uint64_t a0 = bench::alloc_count();
  sim.run_until(sim.now() + interval * kBroadcasts);
  EXPECT_EQ(bench::alloc_count() - a0, 0u);
  EXPECT_EQ(c.server(0).cache()->board(), c.mds().board());
}

// One hop of a token passed around a shard ring: the token moves to the
// next shard, arriving one lookahead later, until `left` hops are spent.
void pass_token(sim::ShardGroup& g, int at, int& left) {
  if (left <= 0) return;
  --left;
  const int to = (at + 1) % g.shards();
  sim::Simulator& from = g.shard(at);
  g.post(from, g.shard(to), from.now() + g.lookahead(),
         sim::InlineEvent([&g, to, &left] { pass_token(g, to, left); }));
}

TEST(AllocZones, ShardBarrierMergeIsAllocationFree) {
  constexpr int kHops = 200;
  sim::ShardGroup g(3, sim::SimTime::micros(1));
  int left = 0;
  // Two tokens, so every barrier merges two same-tick posts.
  const auto pass_two_tokens = [&] {
    left = 2 * kHops;
    for (int s = 0; s < 2; ++s) {
      g.shard(s).schedule_at(g.shard(s).now(), sim::InlineEvent([&g, s, &left] {
        pass_token(g, s, left);
      }));
    }
    g.run_all();
  };
  pass_two_tokens();  // warm: outboxes, merge buffer and heaps reach size
  const std::uint64_t posts0 = g.posts_delivered();

  const std::uint64_t a0 = bench::alloc_count();
  pass_two_tokens();
  EXPECT_EQ(bench::alloc_count() - a0, 0u);
  EXPECT_EQ(g.posts_delivered() - posts0, 2u * kHops);
}

sim::Task<> write_records(cluster::Cluster& c, pvfs::FileHandle fh,
                          const std::vector<std::int64_t>& offsets,
                          std::int64_t record, bool& done) {
  for (const std::int64_t off : offsets) {
    co_await c.client().write_at(0, fh, off, record);
  }
  done = true;
}

sim::Task<> flush(core::IBridgeCache& cache, Bytes budget, bool& done) {
  co_await cache.flush_dirty(budget);
  done = true;
}

/// Writes `records` 800 B records scattered over `rows` stripe rows, each
/// inside one stripe unit of server 0, then flushes them with `budget`;
/// three rounds.  Expects the last (warm) round's flush to write every
/// record back without a single allocation.
void expect_allocation_free_flush(int records, int rows, Bytes budget) {
  constexpr std::int64_t kRecord = 800;
  const cluster::ClusterConfig cfg = cluster::ClusterConfig::with_ibridge();
  const std::int64_t row = cfg.data_servers * cfg.stripe_unit;
  cluster::Cluster c(cfg);
  const pvfs::FileHandle fh = c.create_file("f", rows * row);
  std::vector<std::int64_t> offsets;
  for (int i = 0; i < records; ++i) {
    offsets.push_back((i * 977) % rows * row + 1000);
  }
  core::IBridgeCache& cache = *c.server(0).cache();
  cache.stop();  // the flush under test is the only write-back

  std::uint64_t allocs = 0;
  std::uint64_t flushed = 0;
  for (int round = 0; round < 3; ++round) {
    bool written = false;
    auto w = write_records(c, fh, offsets, kRecord, written);
    w.start();
    c.sim().run_while_pending([&] { return written; });
    ASSERT_TRUE(written);

    const std::uint64_t wb0 = cache.stats().writebacks;
    bool done = false;
    auto f = flush(cache, budget, done);
    const std::uint64_t a0 = bench::alloc_count();
    f.start();
    c.sim().run_while_pending([&] { return done; });
    allocs = bench::alloc_count() - a0;  // the last (warm) round counts
    flushed = cache.stats().writebacks - wb0;
    ASSERT_TRUE(done);
  }
  EXPECT_EQ(allocs, 0u) << records << " records";
  EXPECT_EQ(flushed, static_cast<std::uint64_t>(records));
}

TEST(AllocZones, WritebackFlushIsAllocationFree) {
  // A daemon-sized flush: 300 entries within its 256 KiB budget.
  expect_allocation_free_flush(300, 8192, Bytes{256 << 10});
  // A drain-sized flush, whose one batch stages more reads at once than the
  // frame pool keeps idle chunks of one size class (1 MiB / 128 B = 8,192).
  expect_allocation_free_flush(10'000, 16384, Bytes{8 << 20});
}

}  // namespace
}  // namespace ibridge
