// Tests for the local file system: extent allocation, offset->LBN mapping,
// and byte-accurate data integrity in verify mode.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <stdexcept>
#include <vector>

#include "fsim/filesystem.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "storage/calibration.hpp"
#include "storage/hdd.hpp"

namespace ibridge::fsim {
namespace {

using storage::kSectorBytes;

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed + i * 7) & 0xff);
  }
  return v;
}

struct FsFixture : ::testing::Test {
  sim::Simulator sim;
  storage::HddParams params = [] {
    auto p = storage::paper_hdd();
    p.anticipation_ms = 0;
    return p;
  }();
  storage::HddModel disk{sim, params};
  LocalFileSystem fs{sim, disk, DataMode::kVerify};

  sim::SimTime do_write(FileId id, std::int64_t off,
                        std::span<const std::byte> data) {
    sim::SimTime out;
    bool done = false;
    auto t = [](LocalFileSystem& f, FileId i, std::int64_t o,
                std::span<const std::byte> d, sim::SimTime& r,
                bool& flag) -> sim::Task<> {
      r = co_await f.write(i, o, static_cast<std::int64_t>(d.size()), d);
      flag = true;
    }(fs, id, off, data, out, done);
    t.start();
    sim.run_while_pending([&] { return done; });
    return out;
  }

  std::vector<std::byte> do_read(FileId id, std::int64_t off,
                                 std::int64_t len) {
    std::vector<std::byte> buf(static_cast<std::size_t>(len));
    bool done = false;
    auto t = [](LocalFileSystem& f, FileId i, std::int64_t o, std::int64_t l,
                std::span<std::byte> b, bool& flag) -> sim::Task<> {
      co_await f.read(i, o, l, b);
      flag = true;
    }(fs, id, off, len, buf, done);
    t.start();
    sim.run_while_pending([&] { return done; });
    return buf;
  }
};

// ---------------------------------------------------------- allocator ----

TEST(ExtentAllocator, AllocatesFromFrontier) {
  ExtentAllocator a(1000);
  EXPECT_EQ(a.allocate(100), 0);
  EXPECT_EQ(a.allocate(100), 100);
  EXPECT_EQ(a.free_sectors(), 800);
}

TEST(ExtentAllocator, ReleaseEnablesReuseFirstFit) {
  ExtentAllocator a(1000);
  const auto x = a.allocate(100);
  const auto y = a.allocate(100);
  (void)y;
  a.release(x, 100);
  EXPECT_EQ(a.allocate(50), x);  // first fit in the freed hole
  EXPECT_EQ(a.allocate(50), x + 50);
}

TEST(ExtentAllocator, CoalescesAdjacentFreeRanges) {
  ExtentAllocator a(1000);
  const auto x = a.allocate(100);
  const auto y = a.allocate(100);
  const auto z = a.allocate(100);
  (void)z;
  a.release(x, 100);
  a.release(y, 100);
  // The two holes coalesce: a 200-sector request fits at x.
  EXPECT_EQ(a.allocate(200), x);
}

TEST(ExtentAllocator, ReturnsMinusOneWhenFull) {
  ExtentAllocator a(100);
  EXPECT_EQ(a.allocate(100), 0);
  EXPECT_EQ(a.allocate(1), -1);
}

// ------------------------------------------------------------- mapping ----

TEST_F(FsFixture, PreallocatedFileIsContiguous) {
  const FileId id = fs.create("a", 1 << 20);
  EXPECT_TRUE(fs.file(id).contiguous());
  EXPECT_EQ(fs.file(id).size(), 1 << 20);
}

TEST_F(FsFixture, MapCoversExactSectorSpan) {
  const FileId id = fs.create("a", 1 << 20);
  auto m = fs.file(id).map(1000, 3000);
  ASSERT_EQ(m.size(), 1u);
  EXPECT_EQ(m[0].lbn, fs.file(id).extents()[0].lbn + 1000 / kSectorBytes);
  // Bytes [1000, 4000) span sectors [1, 7] -> 7 sectors.
  EXPECT_EQ(m[0].sectors, 7);
}

TEST_F(FsFixture, InterleavedGrowthCreatesSeparateExtents) {
  const FileId a = fs.create("a");
  const FileId b = fs.create("b");
  ASSERT_TRUE(fs.truncate(a, 4096));
  ASSERT_TRUE(fs.truncate(b, 4096));
  ASSERT_TRUE(fs.truncate(a, 8192));  // a's growth is now discontiguous
  EXPECT_EQ(fs.file(a).extents().size(), 2u);
  auto m = fs.file(a).map(0, 8192);
  EXPECT_EQ(m.size(), 2u);
}

TEST_F(FsFixture, ContiguousGrowthExtendsLastExtent) {
  const FileId a = fs.create("a");
  ASSERT_TRUE(fs.truncate(a, 4096));
  ASSERT_TRUE(fs.truncate(a, 8192));  // frontier unchanged in between
  EXPECT_EQ(fs.file(a).extents().size(), 1u);
}

TEST_F(FsFixture, RemoveReleasesSpace) {
  const std::int64_t before =
      ExtentAllocator(disk.capacity_sectors()).free_sectors();
  const FileId id = fs.create("a", 1 << 20);
  fs.remove(id);
  const FileId id2 = fs.create("b", disk.capacity_sectors() * kSectorBytes /
                                         2);
  EXPECT_NE(id2, kInvalidFile);
  (void)before;
  EXPECT_EQ(fs.lookup("a"), kInvalidFile);
}

TEST_F(FsFixture, LookupFindsByName) {
  const FileId id = fs.create("hello", 4096);
  EXPECT_EQ(fs.lookup("hello"), id);
  EXPECT_EQ(fs.lookup("nope"), kInvalidFile);
}

// ------------------------------------------------------ data integrity ----

TEST_F(FsFixture, ReadBackReturnsWrittenBytes) {
  const FileId id = fs.create("a", 1 << 20);
  const auto data = pattern(10'000, 42);
  do_write(id, 777, data);
  const auto back = do_read(id, 777, 10'000);
  EXPECT_EQ(0, std::memcmp(back.data(), data.data(), data.size()));
}

TEST_F(FsFixture, UnwrittenRangesReadAsZero) {
  const FileId id = fs.create("a", 1 << 20);
  const auto back = do_read(id, 12345, 100);
  for (auto b : back) EXPECT_EQ(b, std::byte{0});
}

TEST_F(FsFixture, ReadPastAllocationThrowsAndLeavesExtents) {
  const FileId id = fs.create("a", 1 << 20);
  const std::vector<Extent> before = fs.file(id).extents();
  EXPECT_THROW(fs.read(id, (1 << 20) - 100, 200, {}), std::out_of_range);
  EXPECT_THROW(fs.read(id, 4LL << 30, 512, {}), std::out_of_range);
  EXPECT_THROW(fs.read(id, -512, 512, {}), std::out_of_range);
  EXPECT_THROW(fs.read(id, 0, 0, {}), std::out_of_range);
  EXPECT_THROW(fs.read(id, 512, INT64_MAX, {}), std::out_of_range);
  const std::vector<Extent>& after = fs.file(id).extents();
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].file_sector, before[i].file_sector);
    EXPECT_EQ(after[i].lbn, before[i].lbn);
    EXPECT_EQ(after[i].sectors, before[i].sectors);
  }
  // Nothing was allocated: the next file starts right after "a".
  const FileId b = fs.create("b", 512);
  EXPECT_EQ(fs.file(b).extents().front().lbn, (1 << 20) / kSectorBytes);
  // The last allocated byte still reads.
  EXPECT_EQ(do_read(id, (1 << 20) - 100, 100).size(), 100u);
}

TEST_F(FsFixture, OverlappingWritesLastWins) {
  const FileId id = fs.create("a", 1 << 20);
  do_write(id, 0, pattern(8192, 1));
  do_write(id, 4096, pattern(8192, 2));
  const auto back = do_read(id, 0, 12288);
  const auto first = pattern(8192, 1);
  const auto second = pattern(8192, 2);
  EXPECT_EQ(0, std::memcmp(back.data(), first.data(), 4096));
  EXPECT_EQ(0, std::memcmp(back.data() + 4096, second.data(), 8192));
}

TEST_F(FsFixture, WriteExtendsFileSize) {
  const FileId id = fs.create("a");
  do_write(id, 100'000, pattern(512, 3));
  EXPECT_EQ(fs.file(id).size(), 100'512);
}

TEST_F(FsFixture, TimingAccountsForDeviceService) {
  const FileId id = fs.create("a", 1 << 20);
  const auto t = do_write(id, 0, pattern(64 * 1024, 9));
  EXPECT_GT(t, sim::SimTime::zero());
  EXPECT_GT(disk.bytes_written(), 0);
}

TEST_F(FsFixture, RandomOpsMatchReferenceModel) {
  // Property test: a random sequence of reads and writes through the block
  // device must agree byte-for-byte with a plain in-memory reference.
  const std::int64_t file_size = 1 << 20;
  const FileId id = fs.create("a", file_size);
  std::vector<std::uint8_t> ref(static_cast<std::size_t>(file_size), 0);
  sim::Rng rng(1234);
  for (int op = 0; op < 200; ++op) {
    const std::int64_t off = rng.uniform(0, file_size - 1);
    const std::int64_t len =
        std::min<std::int64_t>(rng.uniform(1, 20'000), file_size - off);
    if (rng.chance(0.5)) {
      auto data = pattern(static_cast<std::size_t>(len),
                          static_cast<std::uint8_t>(op));
      do_write(id, off, data);
      std::memcpy(ref.data() + off, data.data(),
                  static_cast<std::size_t>(len));
    } else {
      const auto got = do_read(id, off, len);
      ASSERT_EQ(0, std::memcmp(got.data(), ref.data() + off,
                               static_cast<std::size_t>(len)))
          << "mismatch at op " << op << " off " << off << " len " << len;
    }
  }
}

TEST_F(FsFixture, PokePeekBypassDevices) {
  const FileId id = fs.create("a", 1 << 16);
  auto data = pattern(1000, 5);
  fs.poke_bytes(id, 100, data);
  std::vector<std::byte> out(1000);
  fs.peek_bytes(id, 100, out);
  EXPECT_EQ(0, std::memcmp(out.data(), data.data(), 1000));
}

TEST(FsTimingOnly, CarriesNoData) {
  sim::Simulator sim;
  auto p = storage::paper_hdd();
  p.anticipation_ms = 0;
  storage::HddModel disk(sim, p);
  LocalFileSystem fs(sim, disk, DataMode::kTimingOnly);
  const FileId id = fs.create("a", 1 << 16);
  fs.poke_bytes(id, 0, pattern(100, 1));
  std::vector<std::byte> out(100, std::byte{0x77});
  fs.peek_bytes(id, 0, out);
  EXPECT_EQ(out[0], std::byte{0x77});  // untouched: no store in timing mode
}

}  // namespace
}  // namespace ibridge::fsim
