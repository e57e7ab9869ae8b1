// Tests for the baseline admission policies (always-small, Hystor-like
// hot-block) and for OS page-granularity read-modify-write in fsim.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cluster/cluster.hpp"
#include "fsim/filesystem.hpp"
#include "storage/calibration.hpp"
#include "storage/hdd.hpp"
#include "workloads/trace.hpp"

namespace ibridge {
namespace {

// ------------------------------------------------------------- policies ----

cluster::ClusterConfig policy_cluster(core::AdmissionPolicy policy) {
  core::IBridgeConfig ib;
  ib.admission = policy;
  auto cc = cluster::ClusterConfig::with_ibridge(ib);
  cc.data_servers = 2;
  return cc;
}

struct PolicyStats {
  std::uint64_t admits = 0;
  std::uint64_t disk_writes = 0;
};

/// One rank writing `length` bytes at each of `offsets`, in order, on a
/// file of `file_bytes`, then draining.
void write_each(cluster::Cluster& c, const std::vector<std::int64_t>& offsets,
                std::int64_t length, std::int64_t file_bytes) {
  workloads::Trace t;
  for (const std::int64_t off : offsets) t.push_back({true, off, length});
  workloads::replay_trace(c, t, {file_bytes, "f"});
}

PolicyStats run_small_writes(core::AdmissionPolicy policy, int passes) {
  cluster::Cluster c(policy_cluster(policy));
  // Small writes to distinct offsets, `passes` times over, 2 MiB apart:
  // stripe-aligned (one sub-request each) and in distinct hot-block regions
  // (1 MiB granularity).
  std::vector<std::int64_t> offsets;
  for (int pass = 0; pass < passes; ++pass) {
    for (std::int64_t i = 0; i < 32; ++i) offsets.push_back(i << 21);
  }
  write_each(c, offsets, 4096, 128 << 20);
  PolicyStats out;
  for (int s = 0; s < c.server_count(); ++s) {
    out.admits += c.server(s).cache()->stats().write_admits;
    out.disk_writes += c.server(s).cache()->stats().write_disk;
  }
  return out;
}

TEST(AdmissionPolicy, AlwaysSmallAdmitsEverySmallRequest) {
  const auto s = run_small_writes(core::AdmissionPolicy::kAlwaysSmall, 1);
  EXPECT_EQ(s.admits, 32u);
  EXPECT_EQ(s.disk_writes, 0u);
}

TEST(AdmissionPolicy, HotBlockNeedsRepeatedAccess) {
  // First pass: every region is cold -> all writes go to the disk.
  const auto cold = run_small_writes(core::AdmissionPolicy::kHotBlock, 1);
  EXPECT_EQ(cold.admits, 0u);
  EXPECT_EQ(cold.disk_writes, 32u);
  // Two passes: the second pass finds every region hot.
  const auto warm = run_small_writes(core::AdmissionPolicy::kHotBlock, 2);
  EXPECT_EQ(warm.admits, 32u);
  EXPECT_EQ(warm.disk_writes, 32u);
}

TEST(AdmissionPolicy, ReturnBasedAdmitsColdSmallWrites) {
  // With T starting at zero, small random writes have positive return
  // immediately (the BTIO "all writes to SSD" behaviour).
  const auto s = run_small_writes(core::AdmissionPolicy::kReturnBased, 1);
  EXPECT_GT(s.admits, 24u);
}

TEST(AdmissionPolicy, LargeRequestsNeverAdmittedByAnyPolicy) {
  for (auto policy :
       {core::AdmissionPolicy::kReturnBased, core::AdmissionPolicy::kAlwaysSmall,
        core::AdmissionPolicy::kHotBlock}) {
    cluster::Cluster c(policy_cluster(policy));
    // Stripe-aligned 64 KB writes: one full-unit sub-request each, so no
    // piece is below the threshold.  (Unaligned large requests DO produce
    // admissible fragments — that is the paper's point.)
    std::vector<std::int64_t> offsets;
    for (std::int64_t i = 0; i < 8; ++i) offsets.push_back(i * 2 * 64 * 1024);
    write_each(c, offsets, 64 * 1024, 64 << 20);
    std::uint64_t admits = 0;
    for (int s = 0; s < c.server_count(); ++s) {
      admits += c.server(s).cache()->stats().write_admits;
    }
    EXPECT_EQ(admits, 0u) << "policy " << static_cast<int>(policy);
  }
}

// ------------------------------------------------------------------ RMW ----

struct RmwFixture : ::testing::Test {
  sim::Simulator sim;
  storage::HddParams params = [] {
    auto p = storage::paper_hdd();
    p.anticipation_ms = 0;
    return p;
  }();
  storage::HddModel disk{sim, params};
  fsim::LocalFileSystem fs{sim, disk, fsim::DataMode::kTimingOnly};

  std::uint64_t reads_issued(std::int64_t off, std::int64_t len) {
    // Built stepwise: the one-expression "f" + to_string(off) form trips
    // GCC 12's -Werror=restrict false positive at -O3.
    std::string name = "f";
    name += std::to_string(off);
    const auto id = fs.create(name, 16 << 20);
    const std::int64_t rbytes_before = disk.bytes_read();
    bool done = false;
    auto t = [](fsim::LocalFileSystem& f, fsim::FileId i, std::int64_t o,
                std::int64_t l, bool& flag) -> sim::Task<> {
      co_await f.write(i, o, l, {});
      flag = true;
    }(fs, id, off, len, done);
    t.start();
    sim.run_while_pending([&] { return done; });
    return static_cast<std::uint64_t>(disk.bytes_read() - rbytes_before);
  }
};

TEST_F(RmwFixture, DisabledByDefaultInRawFs) {
  EXPECT_EQ(fs.rmw_page_bytes(), 0);
  EXPECT_EQ(reads_issued(100, 3000), 0u);
}

TEST_F(RmwFixture, PageAlignedWritesReadNothing) {
  fs.set_rmw_page_bytes(4096);
  EXPECT_EQ(reads_issued(0, 8192), 0u);
  EXPECT_EQ(reads_issued(4096, 4096), 0u);
}

TEST_F(RmwFixture, UnalignedHeadReadsOnePage) {
  fs.set_rmw_page_bytes(4096);
  // [100, 4096): head page partially covered, write ends on the boundary.
  EXPECT_EQ(reads_issued(100, 4096 - 100), 4096u);
}

TEST_F(RmwFixture, UnalignedTailReadsOnePage) {
  fs.set_rmw_page_bytes(4096);
  EXPECT_EQ(reads_issued(0, 3000), 4096u);
}

TEST_F(RmwFixture, InteriorSubPageWriteReadsBothBoundaryPages) {
  fs.set_rmw_page_bytes(4096);
  EXPECT_EQ(reads_issued(100, 10'000), 2 * 4096u);
}

TEST_F(RmwFixture, TinyWriteWithinOnePageReadsItOnce) {
  fs.set_rmw_page_bytes(4096);
  EXPECT_EQ(reads_issued(1000, 640), 4096u);
}

TEST(RmwCluster, SsdOnlySmallWritesPayRmw) {
  // The Figure 10 mechanism: sub-page writes to SSD datafiles trigger fill
  // reads; the iBridge log is exempt.
  auto cc = cluster::ClusterConfig::ssd_only();
  cc.data_servers = 2;
  cluster::Cluster c(cc);
  std::vector<std::int64_t> offsets;
  for (std::int64_t i = 0; i < 16; ++i) offsets.push_back(i * 100'000);
  write_each(c, offsets, 640, 16 << 20);
  std::int64_t fills = 0;
  for (int s = 0; s < c.server_count(); ++s) {
    fills += c.server(s).ssd()->bytes_read();
  }
  // One boundary-page fill per write, plus a second for the two offsets
  // (i = 7, 12) whose 640 bytes straddle a page boundary.
  EXPECT_EQ(fills, 18 * 4096);
}

}  // namespace
}  // namespace ibridge
