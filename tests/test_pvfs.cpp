// Integration tests for the PVFS layer: metadata server, data servers, and
// client fan-out — including end-to-end data integrity through striping and
// the iBridge cache.
#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "cluster/cluster.hpp"
#include "mpiio/mpi.hpp"
#include "sim/rng.hpp"

namespace ibridge::pvfs {
namespace {

std::vector<std::byte> pattern(std::size_t n, std::uint8_t seed) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<std::byte>((seed * 37 + i * 3) & 0xff);
  }
  return v;
}

cluster::ClusterConfig verify_config(bool ibridge, int servers = 4) {
  auto cc = ibridge ? cluster::ClusterConfig::with_ibridge()
                    : cluster::ClusterConfig::stock();
  cc.data_servers = servers;
  cc.server.data_mode = fsim::DataMode::kVerify;
  // Keep devices small so verify-mode stores stay cheap.
  cc.server.hdd.capacity_bytes = 4LL << 30;
  cc.server.ssd.capacity_bytes = 1LL << 30;
  cc.server.ibridge.ssd_cache_bytes = 64 << 20;
  return cc;
}

sim::SimTime client_write(cluster::Cluster& c, FileHandle fh, int rank,
                          std::int64_t off, std::span<const std::byte> data) {
  sim::SimTime out;
  bool done = false;
  auto t = [](cluster::Cluster& cl, FileHandle f, int r, std::int64_t o,
              std::span<const std::byte> d, sim::SimTime& res,
              bool& flag) -> sim::Task<> {
    res = co_await cl.client().write_at(
        r, f, o, static_cast<std::int64_t>(d.size()), d);
    flag = true;
  }(c, fh, rank, off, data, out, done);
  t.start();
  c.sim().run_while_pending([&] { return done; });
  return out;
}

std::vector<std::byte> client_read(cluster::Cluster& c, FileHandle fh,
                                   int rank, std::int64_t off,
                                   std::int64_t len) {
  std::vector<std::byte> buf(static_cast<std::size_t>(len));
  bool done = false;
  auto t = [](cluster::Cluster& cl, FileHandle f, int r, std::int64_t o,
              std::int64_t l, std::span<std::byte> b,
              bool& flag) -> sim::Task<> {
    co_await cl.client().read_at(r, f, o, l, b);
    flag = true;
  }(c, fh, rank, off, len, buf, done);
  t.start();
  c.sim().run_while_pending([&] { return done; });
  return buf;
}

// --------------------------------------------------------------- metadata ----

TEST(MetadataServer, CreatesDatafilesWithCorrectShares) {
  cluster::Cluster c(verify_config(false, 4));
  const std::int64_t size = 10 * 64 * 1024 + 999;
  const FileHandle fh = c.create_file("f", size);
  const LogicalFile& f = c.mds().file(fh);
  ASSERT_EQ(f.datafiles.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    const auto& df = c.server(s).fs().file(f.datafiles[static_cast<size_t>(s)]);
    EXPECT_GE(df.size(),
              f.layout.server_share(sim::Bytes{size}, sim::ServerId{s}).count());
    EXPECT_TRUE(df.contiguous());
  }
}

TEST(MetadataServer, LookupByName) {
  cluster::Cluster c(verify_config(false));
  const FileHandle fh = c.create_file("hello", 1 << 20);
  EXPECT_EQ(c.mds().lookup("hello"), fh);
  EXPECT_EQ(c.mds().lookup("world"), kInvalidHandle);
  EXPECT_EQ(c.create_file("hello", 1 << 20), fh) << "create is idempotent";
}

TEST(MetadataServer, BoardDaemonPublishesTValues) {
  cluster::Cluster c(verify_config(true, 2));
  const FileHandle fh = c.create_file("f", 16 << 20);
  // Generate traffic so T values move, then let a report interval pass.
  for (int i = 0; i < 8; ++i) {
    client_write(c, fh, 0, i * 300'000, pattern(50'000, 1));
  }
  c.sim().run_until(c.sim().now() + sim::SimTime::seconds(2));
  ASSERT_EQ(c.mds().board().size(), 2u);
  EXPECT_GT(c.mds().board()[0] + c.mds().board()[1], 0.0);
}

// ----------------------------------------------------------------- client ----

// An unknown handle is refused in every build type, not only under assert.
TEST(MetadataServer, UnknownHandleThrows) {
  cluster::Cluster c(verify_config(false));
  const FileHandle fh = c.create_file("f", 8 << 20);
  EXPECT_EQ(c.mds().file(fh).name, "f");
  const MetadataServer& mds = c.mds();
  EXPECT_THROW(c.mds().file(fh + 1), std::invalid_argument);
  EXPECT_THROW(mds.file(kInvalidHandle), std::invalid_argument);
}

TEST(Client, WriteReadRoundTripAcrossServers) {
  for (const bool ibridge : {false, true}) {
    cluster::Cluster c(verify_config(ibridge));
    const FileHandle fh = c.create_file("f", 8 << 20);
    const auto data = pattern(300'000, 42);  // spans several stripe units
    client_write(c, fh, 0, 123'456, data);
    const auto got = client_read(c, fh, 0, 123'456, 300'000);
    EXPECT_EQ(0, std::memcmp(got.data(), data.data(), data.size()))
        << (ibridge ? "iBridge" : "stock");
  }
}

TEST(Client, SubRequestsLandOnCorrectServers) {
  cluster::Cluster c(verify_config(false));
  const FileHandle fh = c.create_file("f", 8 << 20);
  // Write one striping unit to stripe 2 -> server 2 only.
  const auto data = pattern(64 * 1024, 7);
  client_write(c, fh, 0, 2 * 64 * 1024, data);
  EXPECT_EQ(c.server(2).bytes_served(), sim::Bytes{64 * 1024});
  EXPECT_EQ(c.server(0).bytes_served(), sim::Bytes::zero());
  EXPECT_EQ(c.server(1).bytes_served(), sim::Bytes::zero());
}

TEST(Client, UnalignedRequestFansOutToTwoServers) {
  cluster::Cluster c(verify_config(false));
  const FileHandle fh = c.create_file("f", 8 << 20);
  client_write(c, fh, 0, 63 * 1024, pattern(2048, 9));
  EXPECT_EQ(c.server(0).bytes_served(), sim::Bytes{1024});
  EXPECT_EQ(c.server(1).bytes_served(), sim::Bytes{1024});
}

TEST(Client, NonPositiveLengthThrows) {
  cluster::Cluster c(verify_config(false));
  const FileHandle fh = c.create_file("f", 8 << 20);
  for (const std::int64_t len : {0, -1}) {
    EXPECT_THROW(c.client().read_at(0, fh, 0, len), std::invalid_argument);
    EXPECT_THROW(c.client().write_at(0, fh, 0, len), std::invalid_argument);
  }
}

TEST(Client, MissingServersOrNicsThrow) {
  cluster::Cluster c(verify_config(false));
  net::NetworkModel net(c.sim());
  net::Nic& nic = net.add_endpoint("client");
  EXPECT_THROW(Client(c.sim(), c.mds(), {}, net, {&nic}),
               std::invalid_argument);
  EXPECT_THROW(Client(c.sim(), c.mds(), {&c.server(0)}, net, {}),
               std::invalid_argument);
}

TEST(Client, RequestTimeIsMaxOfSubRequests) {
  // A request spanning a loaded server cannot complete before that
  // server's queue drains: synchronous-request semantics.
  cluster::Cluster c(verify_config(false, 2));
  const FileHandle fh = c.create_file("f", 8 << 20);
  const auto t_small = client_write(c, fh, 0, 0, pattern(1024, 1));
  const auto t_span = client_write(c, fh, 0, 63 * 1024, pattern(2048, 2));
  EXPECT_GT(t_span, sim::SimTime::zero());
  EXPECT_GT(t_small, sim::SimTime::zero());
}

TEST(Client, ConcurrentRandomOpsMatchReference) {
  // The flagship integrity test: random reads/writes from several ranks
  // through striping + iBridge caching + write-back, checked against an
  // in-memory reference after every read and after the final drain.
  auto cc = verify_config(true);
  cc.server.ibridge.ssd_cache_bytes = 1 << 20;  // force eviction traffic
  cc.server.ibridge.log_segment_bytes = 256 << 10;
  cluster::Cluster c(cc);
  const std::int64_t span = 6 << 20;
  const FileHandle fh = c.create_file("f", span);
  std::vector<std::uint8_t> ref(span, 0);

  struct Op {
    bool write;
    std::int64_t off, len;
    std::uint8_t seed;
  };
  sim::Rng rng(4321);
  for (int round = 0; round < 40; ++round) {
    // A batch of concurrent writes from 4 ranks at disjoint offsets.
    std::vector<Op> ops;
    std::int64_t cursor = rng.uniform(0, span / 2);
    for (int r = 0; r < 4; ++r) {
      const std::int64_t len = rng.uniform(1000, 90'000);
      if (cursor + len > span) break;
      ops.push_back({true, cursor, len, static_cast<std::uint8_t>(round * 4 + r)});
      cursor += len + rng.uniform(0, 50'000);
    }
    bool done = false;
    std::vector<std::vector<std::byte>> bufs;
    bufs.reserve(ops.size());
    for (const auto& op : ops) {
      bufs.push_back(pattern(static_cast<std::size_t>(op.len), op.seed));
    }
    auto t = [](cluster::Cluster& cl, FileHandle f, const std::vector<Op>& o,
                const std::vector<std::vector<std::byte>>& b,
                bool& flag) -> sim::Task<> {
      sim::JoinSet join(cl.sim());
      for (std::size_t i = 0; i < o.size(); ++i) {
        join.add([](cluster::Cluster& cl2, FileHandle f2, Op op,
                    std::span<const std::byte> data) -> sim::Task<> {
          co_await cl2.client().write_at(static_cast<int>(op.seed % 4), f2,
                                         op.off, op.len, data);
        }(cl, f, o[i], b[i]));
      }
      co_await join.join();
      flag = true;
    }(c, fh, ops, bufs, done);
    t.start();
    c.sim().run_while_pending([&] { return done; });
    for (std::size_t i = 0; i < ops.size(); ++i) {
      std::memcpy(ref.data() + ops[i].off, bufs[i].data(),
                  static_cast<std::size_t>(ops[i].len));
    }
    // A verification read of a random window.
    const std::int64_t roff = rng.uniform(0, span - 100'000);
    const std::int64_t rlen = rng.uniform(1, 100'000);
    const auto got = client_read(c, fh, 0, roff, rlen);
    ASSERT_EQ(0, std::memcmp(got.data(), ref.data() + roff,
                             static_cast<std::size_t>(rlen)))
        << "round " << round;
  }
  c.drain();
  // After drain every byte must be on the disks alone.
  const auto got = client_read(c, fh, 0, 0, span);
  EXPECT_EQ(0, std::memcmp(got.data(), ref.data(), ref.size()));
}

// ----------------------------------------------------------- data server ----

TEST(DataServer, StockHasNoCache) {
  cluster::Cluster c(verify_config(false));
  EXPECT_FALSE(c.server(0).has_cache());
  EXPECT_EQ(c.server(0).current_t(), 0.0);
}

TEST(DataServer, IBridgeHasCacheAndSsd) {
  cluster::Cluster c(verify_config(true));
  EXPECT_TRUE(c.server(0).has_cache());
  EXPECT_NE(c.server(0).ssd(), nullptr);
}

TEST(DataServer, SsdOnlyModePutsDatafilesOnSsd) {
  auto cc = verify_config(false);
  cc.server.storage_mode = StorageMode::kSsdOnly;
  cluster::Cluster c(cc);
  const FileHandle fh = c.create_file("f", 4 << 20);
  client_write(c, fh, 0, 0, pattern(200'000, 3));
  EXPECT_FALSE(c.server(0).has_cache());
  EXPECT_GT(c.server(0).ssd()->bytes_written(), 0);
  EXPECT_EQ(c.server(0).disk().bytes_written(), 0);
}

TEST(DataServer, ServiceMeterRecordsRequests) {
  cluster::Cluster c(verify_config(false));
  const FileHandle fh = c.create_file("f", 4 << 20);
  client_write(c, fh, 0, 0, pattern(64 * 1024, 4));
  EXPECT_EQ(c.server(0).service_meter().count(), 1u);
  EXPECT_GT(c.server(0).service_meter().mean_ms(), 0.0);
}

}  // namespace
}  // namespace ibridge::pvfs
