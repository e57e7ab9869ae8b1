// Exact allocation counts for the hot functions no bench gate reaches.
//
// bench_simcore, bench_cacheplane and bench_scale count every global
// operator new over their measured windows, which covers the event engine,
// the cache data plane and the stock serve path.  Five hot functions run
// outside all three windows: fragment tagging, the Equation (3) return
// estimate and the T-board broadcast run only on iBridge clusters
// (bench_scale's window is stock), the streaming classifier only in trace
// tools, and the batched tick step only on the sharded core.  Each test
// below warms its function once, then counts allocations over repeated
// calls with the same shared counter (bench/alloc_count.hpp) and requires
// exactly zero.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bench/alloc_count.hpp"
#include "cluster/cluster.hpp"
#include "core/return_estimator.hpp"
#include "core/service_time.hpp"
#include "core/tagger.hpp"
#include "pvfs/layout.hpp"
#include "sim/simulator.hpp"
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
  const sim::SimTime interval = cfg.server.ibridge.t_report_interval;
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

}  // namespace
}  // namespace ibridge
