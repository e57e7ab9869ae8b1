// Tests for workload generators, the trace toolkit, and the Table I
// classifier.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>

#include "workloads/btio.hpp"
#include "workloads/ior_mpi_io.hpp"
#include "workloads/mpi_io_test.hpp"
#include "workloads/trace.hpp"

namespace ibridge::workloads {
namespace {

cluster::ClusterConfig small_cluster(bool ibridge = false) {
  auto cc = ibridge ? cluster::ClusterConfig::with_ibridge()
                    : cluster::ClusterConfig::stock();
  cc.data_servers = 4;
  return cc;
}

// ----------------------------------------------------------- classifier ----

TEST(AccessClassifier, FlagsUnalignedAndRandom) {
  AccessClassifier cls;  // 64 KB unit, 20 KB random threshold
  EXPECT_TRUE(cls.is_unaligned({false, 1, 65 * 1024}));
  EXPECT_TRUE(cls.is_unaligned({false, 0, 65 * 1024}));   // odd size
  EXPECT_TRUE(cls.is_unaligned({false, 1024, 128 * 1024}));  // odd offset
  EXPECT_FALSE(cls.is_unaligned({false, 0, 64 * 1024}));
  EXPECT_FALSE(cls.is_unaligned({false, 0, 128 * 1024}));
  EXPECT_FALSE(cls.is_unaligned({false, 0, 10 * 1024}));  // small, not ">"
  EXPECT_TRUE(cls.is_random({false, 0, 19 * 1024}));
  EXPECT_FALSE(cls.is_random({false, 0, 20 * 1024}));
}

TEST(AccessClassifier, PercentagesSumCorrectly) {
  Trace t = {
      {false, 0, 65 * 1024},   // unaligned
      {false, 0, 64 * 1024},   // aligned
      {false, 0, 4 * 1024},    // random
      {false, 0, 128 * 1024},  // aligned
  };
  const auto s = AccessClassifier().classify(t);
  EXPECT_EQ(s.requests, 4u);
  EXPECT_DOUBLE_EQ(s.unaligned_pct, 25.0);
  EXPECT_DOUBLE_EQ(s.random_pct, 25.0);
  EXPECT_DOUBLE_EQ(s.total_pct, 50.0);
}

TEST(AccessClassifier, EmptyTraceIsZero) {
  const auto s = AccessClassifier().classify({});
  EXPECT_EQ(s.requests, 0u);
  EXPECT_EQ(s.total_pct, 0.0);
}

// ------------------------------------------------------------- text IO ----

TEST(TraceIo, RoundTripsThroughText) {
  Trace t = {{false, 0, 1024}, {true, 65536, 4096}, {false, 999, 7}};
  std::stringstream ss;
  write_trace(ss, t);
  const Trace back = read_trace(ss);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back[i].write, t[i].write);
    EXPECT_EQ(back[i].offset, t[i].offset);
    EXPECT_EQ(back[i].size, t[i].size);
  }
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# header\n\nR 0 1024\n");
  const Trace t = read_trace(ss);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_FALSE(t[0].write);
}

TEST(TraceIo, RejectsMalformedLines) {
  std::stringstream bad_op("X 0 1024\n");
  EXPECT_THROW(read_trace(bad_op), std::runtime_error);
  std::stringstream bad_size("R 0 -5\n");
  EXPECT_THROW(read_trace(bad_size), std::runtime_error);
  std::stringstream missing("R 0\n");
  EXPECT_THROW(read_trace(missing), std::runtime_error);
}

// ---------------------------------------------------------- synthesizer ----

struct SynthCase {
  TraceProfile profile;
  double unaligned, random;  // Table I targets (%)
};

// gtest puts the printed parameter into each listed test name. Without this
// overload it dumps the object's bytes, and the pointer inside the profile
// name's std::string makes that name differ on every run.
void PrintTo(const SynthCase& c, std::ostream* os) { *os << c.profile.name; }

class SynthesizerMatchesTableI : public ::testing::TestWithParam<SynthCase> {};

TEST_P(SynthesizerMatchesTableI, WithinTwoPercent) {
  const auto& tc = GetParam();
  TraceSynthesizer synth(tc.profile);
  const Trace t = synth.generate(20'000, 10LL << 30, /*seed=*/1);
  const auto s = AccessClassifier().classify(t);
  EXPECT_NEAR(s.unaligned_pct, tc.unaligned, 2.0) << tc.profile.name;
  EXPECT_NEAR(s.random_pct, tc.random, 2.0) << tc.profile.name;
}

INSTANTIATE_TEST_SUITE_P(
    TableI, SynthesizerMatchesTableI,
    ::testing::Values(SynthCase{alegra_2744_profile(), 35.2, 7.3},
                      SynthCase{alegra_5832_profile(), 35.7, 6.9},
                      SynthCase{cth_profile(), 24.3, 30.1},
                      SynthCase{s3d_profile(), 62.8, 5.8}),
    [](const auto& tinfo) { return tinfo.param.profile.name.substr(0, 6) +
                                   std::to_string(tinfo.index); });

TEST(TraceSynthesizer, DeterministicForSeed) {
  TraceSynthesizer synth(cth_profile());
  const Trace a = synth.generate(500, 1 << 30, 7);
  const Trace b = synth.generate(500, 1 << 30, 7);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].offset, b[i].offset);
    EXPECT_EQ(a[i].size, b[i].size);
  }
}

TEST(TraceSynthesizer, S3dRequestsAreLargest) {
  const Trace s3d = TraceSynthesizer(s3d_profile()).generate(5000, 1 << 30, 1);
  const Trace alg =
      TraceSynthesizer(alegra_2744_profile()).generate(5000, 1 << 30, 1);
  const auto cls = AccessClassifier();
  EXPECT_GT(cls.classify(s3d).avg_size, 1.5 * cls.classify(alg).avg_size);
}

TEST(TraceSynthesizer, StaysWithinFile) {
  const std::int64_t file = 64 << 20;
  const Trace t = TraceSynthesizer(cth_profile()).generate(2000, file, 3);
  for (const auto& r : t) {
    EXPECT_GE(r.offset, 0);
    EXPECT_GT(r.size, 0);
    EXPECT_LE(r.offset + r.size, file + r.size)  // offset==0 wrap allowance
        << "record outside file";
  }
}

// ------------------------------------------------------------ workloads ----

TEST(MpiIoTest, MovesExactConfiguredBytes) {
  cluster::Cluster c(small_cluster());
  MpiIoTestConfig cfg;
  cfg.nprocs = 8;
  cfg.request_size = 64 * 1024;
  cfg.file_bytes = 256 << 20;
  cfg.access_bytes = 16 << 20;
  cfg.write = true;
  const auto r = run_mpi_io_test(c, cfg);
  const std::int64_t per_iter = 8LL * 64 * 1024;
  const std::int64_t iters = (16 << 20) / per_iter;
  EXPECT_EQ(r.bytes, iters * per_iter);
  EXPECT_EQ(r.requests, static_cast<std::uint64_t>(iters * 8));
  EXPECT_GT(r.mbps(), 0.0);
  EXPECT_GE(r.elapsed, r.io_elapsed);
}

TEST(MpiIoTest, OffsetShiftProducesTwoServerRequests) {
  cluster::Cluster c(small_cluster());
  MpiIoTestConfig cfg;
  cfg.nprocs = 4;
  cfg.request_size = 64 * 1024;
  cfg.offset_shift = 1024;
  cfg.file_bytes = 64 << 20;
  cfg.access_bytes = 4 << 20;
  cfg.write = true;
  const auto r = run_mpi_io_test(c, cfg);
  EXPECT_GT(r.bytes, 0);
  // Every request spans two servers; all four servers see traffic.
  for (int s = 0; s < 4; ++s) {
    EXPECT_GT(c.server(s).bytes_served(), sim::Bytes::zero());
  }
}

TEST(MpiIoTest, BarrierModeRuns) {
  cluster::Cluster c(small_cluster());
  MpiIoTestConfig cfg;
  cfg.nprocs = 4;
  cfg.request_size = 64 * 1024;
  cfg.file_bytes = 64 << 20;
  cfg.access_bytes = 2 << 20;
  cfg.barrier_each_iteration = true;
  const auto r = run_mpi_io_test(c, cfg);
  EXPECT_GT(r.bytes, 0);
}

TEST(IorMpiIo, EachProcessSweepsItsChunk) {
  cluster::Cluster c(small_cluster());
  IorMpiIoConfig cfg;
  cfg.nprocs = 8;
  cfg.request_size = 33 * 1024;
  cfg.file_bytes = 64 << 20;
  cfg.access_bytes = 8 << 20;
  cfg.write = true;
  const auto r = run_ior_mpi_io(c, cfg);
  // Each process sweeps at least its share; the final request may overshoot
  // the sweep boundary by up to one request.
  const std::int64_t share = (8 << 20) / 8;
  EXPECT_GE(r.bytes, 8 * share);
  EXPECT_LT(r.bytes, 8 * (share + cfg.request_size));
  EXPECT_GT(r.mbps(), 0.0);
}

TEST(BtIo, RequestSizesMatchPaper) {
  BtIoConfig cfg;
  cfg.nprocs = 9;
  EXPECT_EQ(cfg.request_bytes(), 2160);
  cfg.nprocs = 100;
  EXPECT_EQ(cfg.request_bytes(), 640);
  cfg.nprocs = 16;
  EXPECT_EQ(cfg.request_bytes(), 1600);
  cfg.nprocs = 64;
  EXPECT_EQ(cfg.request_bytes(), 800);
}

TEST(BtIo, RejectsNonSquareProcessCount) {
  cluster::Cluster c(small_cluster());
  BtIoConfig cfg;
  cfg.grid = 32;
  cfg.time_steps = 2;
  for (const int nprocs : {8, 0, -4}) {
    cfg.nprocs = nprocs;
    EXPECT_THROW(run_btio(c, cfg), std::invalid_argument) << nprocs;
    EXPECT_THROW(cfg.request_bytes(), std::invalid_argument) << nprocs;
  }
}

TEST(BtIo, RunsAndSeparatesComputeFromIo) {
  cluster::Cluster c(small_cluster());
  BtIoConfig cfg;
  cfg.nprocs = 4;
  cfg.grid = 32;
  cfg.time_steps = 2;
  cfg.compute_ms_per_step = 10.0;
  const auto r = run_btio(c, cfg);
  EXPECT_GT(r.bytes, 0);
  EXPECT_GT(r.io_time, sim::SimTime::zero());
  EXPECT_NEAR(r.compute_time.to_millis(), 20.0, 1e-6);
  EXPECT_GT(r.elapsed, r.compute_time);
  // Every write is one cell row: grid/sqrt(4) * 40 bytes.
  EXPECT_EQ(r.bytes % cfg.request_bytes(), 0);
}

TEST(Replay, ComputesServiceTimes) {
  cluster::Cluster c(small_cluster());
  Trace t = TraceSynthesizer(alegra_2744_profile()).generate(100, 64 << 20, 5);
  ReplayConfig rc;
  rc.file_bytes = 64 << 20;
  const auto r = replay_trace(c, t, rc);
  EXPECT_EQ(r.requests, 100u);
  EXPECT_GT(r.avg_request_ms, 0.0);
  EXPECT_GT(r.bytes, 0);
}

TEST(Replay, IBridgeImprovesServiceTime) {
  Trace t = TraceSynthesizer(cth_profile()).generate(400, 64 << 20, 11);
  ReplayConfig rc;
  rc.file_bytes = 64 << 20;
  double stock_ms, ib_ms;
  {
    cluster::Cluster c(small_cluster(false));
    stock_ms = replay_trace(c, t, rc).avg_request_ms;
  }
  {
    cluster::Cluster c(small_cluster(true));
    ib_ms = replay_trace(c, t, rc).avg_request_ms;
  }
  EXPECT_LT(ib_ms, stock_ms) << "iBridge must reduce avg service time";
}

}  // namespace
}  // namespace ibridge::workloads
