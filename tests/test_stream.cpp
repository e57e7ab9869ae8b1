// workloads::WorkloadStream — streaming workload generation for scale
// campaigns.
//
// The load-bearing property is digest equivalence: the streamed sequence
// must be record-for-record identical to the materialized
// TraceSynthesizer::generate() output for the same (profile, unit,
// file_bytes, seed), and replay_stream() must reproduce replay_trace()'s
// simulated schedule exactly.  A fuzz-labeled case checks the same
// equivalence on the sharded core.
#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

#include "cluster/cluster.hpp"
#include "workloads/trace.hpp"

namespace ibridge::workloads {
namespace {

const std::int64_t kFile = 64LL << 20;

std::vector<TraceProfile> all_profiles() {
  return {alegra_2744_profile(), alegra_5832_profile(), cth_profile(),
          s3d_profile()};
}

TEST(WorkloadStream, StreamMatchesMaterializedTraceAcrossSeeds) {
  for (const auto& profile : all_profiles()) {
    TraceSynthesizer synth(profile);
    for (std::uint64_t seed : {1ULL, 42ULL, 0xdeadbeefULL}) {
      const Trace trace = synth.generate(500, kFile, seed);
      WorkloadStream stream = synth.stream(kFile, seed);
      ASSERT_EQ(trace.size(), 500u);
      for (std::size_t i = 0; i < trace.size(); ++i) {
        const TraceRecord r = stream.next();
        EXPECT_EQ(r.write, trace[i].write)
            << profile.name << " seed=" << seed << " i=" << i;
        EXPECT_EQ(r.offset, trace[i].offset)
            << profile.name << " seed=" << seed << " i=" << i;
        EXPECT_EQ(r.size, trace[i].size)
            << profile.name << " seed=" << seed << " i=" << i;
      }
      EXPECT_EQ(stream.generated(), 500u);
    }
  }
}

TEST(WorkloadStream, StreamedClassificationMatchesTableTargets) {
  // The Table I statistics hold for the streamed path via the incremental
  // Accumulator — no materialized Trace anywhere in this test.
  AccessClassifier classifier;
  for (const auto& profile : all_profiles()) {
    WorkloadStream stream = TraceSynthesizer(profile).stream(1LL << 30, 7);
    AccessClassifier::Accumulator acc;
    for (int i = 0; i < 20'000; ++i) classifier.add(acc, stream.next());
    const AccessStats s = classifier.finish(acc);
    EXPECT_NEAR(s.unaligned_pct, 100.0 * profile.unaligned_frac, 2.0)
        << profile.name;
    EXPECT_NEAR(s.random_pct, 100.0 * profile.random_frac, 2.0)
        << profile.name;
  }
}

TEST(WorkloadStream, AccumulatorMatchesBatchClassify) {
  TraceSynthesizer synth(cth_profile());
  const Trace trace = synth.generate(2'000, kFile, 99);
  AccessClassifier classifier;
  const AccessStats batch = classifier.classify(trace);
  AccessClassifier::Accumulator acc;
  for (const auto& r : trace) classifier.add(acc, r);
  const AccessStats inc = classifier.finish(acc);
  EXPECT_EQ(inc.requests, batch.requests);
  EXPECT_DOUBLE_EQ(inc.unaligned_pct, batch.unaligned_pct);
  EXPECT_DOUBLE_EQ(inc.random_pct, batch.random_pct);
  EXPECT_DOUBLE_EQ(inc.avg_size, batch.avg_size);
}

std::tuple<std::int64_t, std::int64_t, std::uint64_t> result_key(
    const WorkloadResult& r) {
  return {r.elapsed.ns(), r.bytes, r.requests};
}

TEST(WorkloadStream, ReplayStreamMatchesReplayTrace) {
  TraceSynthesizer synth(alegra_2744_profile());
  ReplayConfig rc;
  rc.file_bytes = kFile;
  const std::size_t n = 200;

  cluster::Cluster a(cluster::ClusterConfig::with_ibridge());
  const WorkloadResult via_trace =
      replay_trace(a, synth.generate(n, rc.file_bytes, 11), rc);

  cluster::Cluster b(cluster::ClusterConfig::with_ibridge());
  WorkloadStream stream = synth.stream(rc.file_bytes, 11);
  const WorkloadResult via_stream = replay_stream(b, stream, n, rc);

  EXPECT_EQ(result_key(via_stream), result_key(via_trace));
  EXPECT_DOUBLE_EQ(via_stream.avg_request_ms, via_trace.avg_request_ms);
}

// ctest -L fuzz: on the sharded core too, the streamed replay must equal
// the materialized-trace replay — streaming changes when records are
// *produced*, and must not perturb the barrier schedule.
TEST(WorkloadStreamFuzz, ShardedReplayStreamMatchesReplayTrace) {
  TraceSynthesizer synth(s3d_profile());
  ReplayConfig rc;
  rc.file_bytes = kFile;
  const std::size_t n = 150;
  auto sharded = [] {
    auto cc = cluster::ClusterConfig::with_ibridge();
    cc.shards = 1;
    cc.shard_group_size = 2;
    cc.adaptive_window_us = 30.0;
    return cc;
  };
  for (std::uint64_t seed : {3ULL, 0xfeedULL}) {
    cluster::Cluster a(sharded());
    const WorkloadResult via_trace =
        replay_trace(a, synth.generate(n, rc.file_bytes, seed), rc);

    cluster::Cluster b(sharded());
    WorkloadStream stream = synth.stream(rc.file_bytes, seed);
    const WorkloadResult via_stream = replay_stream(b, stream, n, rc);

    EXPECT_EQ(result_key(via_stream), result_key(via_trace))
        << "seed=" << seed;
  }
}

}  // namespace
}  // namespace ibridge::workloads
