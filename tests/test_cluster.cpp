// System-level tests: the paper's headline effects must hold as ordering
// properties of the assembled cluster, and simulations must be
// deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "check/differential.hpp"
#include "check/generator.hpp"
#include "check/invariants.hpp"
#include "cluster/cluster.hpp"
#include "fault/schedule.hpp"
#include "workloads/btio.hpp"
#include "workloads/mpi_io_test.hpp"

namespace ibridge::cluster {
namespace {

workloads::MpiIoTestConfig quick(std::int64_t request_size, bool write) {
  workloads::MpiIoTestConfig cfg;
  cfg.nprocs = 16;
  cfg.request_size = request_size;
  cfg.file_bytes = 2LL << 30;
  cfg.access_bytes = 128 << 20;
  cfg.write = write;
  return cfg;
}

double run_mbps(const ClusterConfig& cc,
                const workloads::MpiIoTestConfig& cfg) {
  Cluster c(cc);
  return run_mpi_io_test(c, cfg).mbps();
}

TEST(ClusterConfigs, NamedConfigurationsDiffer) {
  const auto stock = ClusterConfig::stock();
  EXPECT_FALSE(stock.server.ibridge.enabled);
  const auto ib = ClusterConfig::with_ibridge();
  EXPECT_TRUE(ib.server.ibridge.enabled);
  const auto ssd = ClusterConfig::ssd_only();
  EXPECT_EQ(ssd.server.storage_mode, pvfs::StorageMode::kSsdOnly);
}

TEST(ClusterHeadline, UnalignedSlowerThanAlignedOnStock) {
  const double aligned = run_mbps(ClusterConfig::stock(), quick(64 * 1024, false));
  const double unaligned =
      run_mbps(ClusterConfig::stock(), quick(65 * 1024, false));
  EXPECT_LT(unaligned, 0.75 * aligned)
      << "Figure 2(a): unaligned access must significantly degrade stock";
}

TEST(ClusterHeadline, IBridgeRecoversUnalignedWriteThroughput) {
  // The paper's Figure 4(a) configuration: 64 processes, 65 KB writes.
  auto cfg = quick(65 * 1024, true);
  cfg.nprocs = 64;
  const double stock = run_mbps(ClusterConfig::stock(), cfg);
  const double bridged = run_mbps(ClusterConfig::with_ibridge(), cfg);
  EXPECT_GT(bridged, 1.10 * stock)
      << "Figure 4(a): iBridge must improve unaligned writes "
      << "(write-back drain time included)";
}

TEST(ClusterHeadline, IBridgeMatchesStockOnAlignedAccess) {
  const double stock = run_mbps(ClusterConfig::stock(), quick(64 * 1024, false));
  const double bridged =
      run_mbps(ClusterConfig::with_ibridge(), quick(64 * 1024, false));
  // Aligned access generates no fragments: iBridge must not hurt (the paper
  // reports identical throughput).
  EXPECT_NEAR(bridged, stock, 0.15 * stock);
}

TEST(ClusterHeadline, SsdOnlyBeatsDiskOnlyForSmallRandomWrites) {
  workloads::BtIoConfig cfg;
  cfg.nprocs = 4;
  cfg.grid = 64;
  cfg.time_steps = 2;
  cfg.compute_ms_per_step = 5.0;
  double disk_s, ssd_s;
  {
    Cluster c(ClusterConfig::stock());
    disk_s = run_btio(c, cfg).elapsed.to_seconds();
  }
  {
    Cluster c(ClusterConfig::ssd_only());
    ssd_s = run_btio(c, cfg).elapsed.to_seconds();
  }
  EXPECT_LT(ssd_s, disk_s);
}

TEST(Cluster, DrainLeavesNoDirtyBytes) {
  Cluster c(ClusterConfig::with_ibridge());
  auto cfg = quick(65 * 1024, true);
  cfg.access_bytes = 32 << 20;
  run_mpi_io_test(c, cfg);  // run_mpi_io_test drains internally
  for (int s = 0; s < c.server_count(); ++s) {
    ASSERT_TRUE(c.server(s).has_cache());
    EXPECT_EQ(c.server(s).cache()->table().dirty_bytes(), sim::Bytes::zero())
        << "server " << s;
  }
}

TEST(Cluster, SimulationsAreDeterministic) {
  auto cfg = quick(65 * 1024, true);
  cfg.access_bytes = 32 << 20;
  Cluster a(ClusterConfig::with_ibridge());
  Cluster b(ClusterConfig::with_ibridge());
  const auto ra = run_mpi_io_test(a, cfg);
  const auto rb = run_mpi_io_test(b, cfg);
  EXPECT_EQ(ra.elapsed.ns(), rb.elapsed.ns());
  EXPECT_EQ(ra.bytes, rb.bytes);
  EXPECT_EQ(a.server(0).cache()->stats().write_admits,
            b.server(0).cache()->stats().write_admits);
}

TEST(Cluster, DiskTraceCapturesBlockSizes) {
  Cluster c(ClusterConfig::stock());
  c.enable_disk_trace(0);
  auto cfg = quick(64 * 1024, false);
  cfg.access_bytes = 32 << 20;
  run_mpi_io_test(c, cfg);
  const auto& hist = c.server(0).disk().trace().size_histogram();
  EXPECT_GT(hist.total(), 0u);
  // Aligned 64 KB requests: the dominant dispatch size is 128 sectors or a
  // merged multiple of it.
  const auto top = hist.top(1);
  ASSERT_FALSE(top.empty());
  EXPECT_EQ(top[0].first % 128, 0);
}

TEST(Cluster, DiskTraceIsOffUntilEnabled) {
  auto cfg = quick(65 * 1024, true);
  cfg.access_bytes = 32 << 20;
  // Requests each device's recorder counted: server 0's disk, its SSD,
  // then every other server's pair.
  const auto recorded = [&](bool trace_server0) {
    Cluster c(ClusterConfig::with_ibridge());
    if (trace_server0) c.enable_disk_trace(0);
    run_mpi_io_test(c, cfg);
    std::vector<std::uint64_t> n;
    for (int s = 0; s < c.server_count(); ++s) {
      n.push_back(c.server(s).disk().trace().requests());
      n.push_back(c.server(s).ssd()->trace().requests());
    }
    return n;
  };
  const std::vector<std::uint64_t> quiet = recorded(false);
  EXPECT_EQ(quiet, std::vector<std::uint64_t>(quiet.size(), 0u));
  std::vector<std::uint64_t> traced = recorded(true);
  EXPECT_GT(traced[0], 0u) << "server 0's disk records sizes";
  traced[0] = 0;
  EXPECT_EQ(traced, quiet) << "no other device records";
}

TEST(Cluster, ServerCountIsConfigurable) {
  auto cc = ClusterConfig::stock();
  cc.data_servers = 3;
  Cluster c(cc);
  EXPECT_EQ(c.server_count(), 3);
  auto fh = c.create_file("f", 10 << 20);
  EXPECT_EQ(c.mds().file(fh).layout.servers(), 3);
}

// Shard groups at the cluster level: many servers fold onto a handful of
// shards and adaptive lookahead widens the barrier windows.  The result is
// still a pure function of the configuration: two fresh clusters agree.
TEST(Cluster, ShardedRunsAreDeterministic) {
  auto cfg = quick(65 * 1024, true);
  cfg.access_bytes = 16 << 20;
  auto run = [&] {
    auto cc = ClusterConfig::with_ibridge();
    cc.data_servers = 8;
    cc.shards = 1;
    cc.shard_group_size = 3;  // 8 servers -> 3 server shards + front shard
    cc.adaptive_window_us = 50.0;
    Cluster c(cc);
    const auto r = run_mpi_io_test(c, cfg);
    return std::tuple{r.elapsed.ns(), r.bytes,
                      c.server(0).cache()->stats().write_admits,
                      c.sim().events_executed(),
                      c.shard_group()->windows_run()};
  };
  const auto first = run();
  EXPECT_EQ(run(), first);
}

// The sharded metrics sampler rides the barrier hook: it must emit rows,
// each stamped with a point of its 5 ms grid.
TEST(Cluster, ShardedMetricsSamplerEmitsGridRows) {
  auto cfg = quick(65 * 1024, true);
  cfg.access_bytes = 16 << 20;
  auto cc = ClusterConfig::with_ibridge();
  cc.data_servers = 6;
  cc.shards = 1;
  cc.shard_group_size = 2;
  Cluster c(cc);
  obs::TimeSeries series;
  c.start_metrics_sampler(sim::SimTime::millis(5), &series);
  run_mpi_io_test(c, cfg);
  c.stop_metrics_sampler();
  ASSERT_GT(series.rows(), 0u);

  std::ostringstream csv;
  series.write_csv(csv);
  EXPECT_NE(csv.str().find("cluster.bytes_served"), std::string::npos);
  std::istringstream lines(csv.str());
  std::string line;
  std::getline(lines, line);  // header
  std::size_t rows = 0;
  while (std::getline(lines, line)) {
    const double ms = std::stod(line.substr(0, line.find(',')));
    EXPECT_GT(ms, 0.0);
    EXPECT_EQ(std::fmod(ms, 5.0), 0.0) << "row " << rows << " at " << ms;
    ++rows;
  }
  EXPECT_EQ(rows, series.rows());
}

// ClusterConfig::shards selects the core — 0 classic, 1 sharded — and
// rejects every other value.
TEST(Cluster, ShardsSelectsCoreAndRejectsOtherValues) {
  auto cc = ClusterConfig::stock();
  cc.shards = 2;
  EXPECT_THROW(Cluster{cc}, std::invalid_argument);
  cc.shards = -1;
  EXPECT_THROW(Cluster{cc}, std::invalid_argument);
  cc.shards = 0;
  EXPECT_EQ(Cluster(cc).shard_group(), nullptr);
  cc.shards = 1;
  EXPECT_NE(Cluster(cc).shard_group(), nullptr);
}

// An iBridge cache whose log the SSD cannot hold is refused in every build
// type, not only by an assert.
TEST(Cluster, CacheLogLargerThanSsdThrows) {
  core::IBridgeConfig ib;
  ib.ssd_cache_bytes = 200LL * 1000 * 1000 * 1000;  // the SSD holds 120 GB
  const auto cc = ClusterConfig::with_ibridge(ib);
  ASSERT_LT(cc.server.ssd.capacity_bytes, ib.ssd_cache_bytes);
  EXPECT_THROW(Cluster{cc}, std::invalid_argument);
}

// A TraceSession stamps spans with one clock, so tracing a sharded cluster
// is refused in every build type; detaching stays allowed.
TEST(Cluster, TracingShardedClusterThrows) {
  auto cc = ClusterConfig::with_ibridge();
  cc.shards = 1;
  Cluster c(cc);
  obs::TraceSession session(c.sim());
  EXPECT_THROW(c.set_trace(&session), std::logic_error);
  c.set_trace(nullptr);
}

// A null series or a non-positive interval is refused in every build type.
TEST(Cluster, MetricsSamplerRejectsMisuse) {
  Cluster c(ClusterConfig::stock());
  obs::TimeSeries series;
  EXPECT_THROW(c.start_metrics_sampler(sim::SimTime::millis(5), nullptr),
               std::invalid_argument);
  EXPECT_THROW(c.start_metrics_sampler(sim::SimTime::zero(), &series),
               std::invalid_argument);
  EXPECT_THROW(c.start_metrics_sampler(sim::SimTime::millis(-1), &series),
               std::invalid_argument);
}

TEST(Cluster, AggregateMetricsAccumulate) {
  Cluster c(ClusterConfig::with_ibridge());
  auto cfg = quick(65 * 1024, true);
  cfg.access_bytes = 32 << 20;
  const auto r = run_mpi_io_test(c, cfg);
  EXPECT_EQ(c.total_bytes_served().count(), r.bytes);
  EXPECT_GT(c.ssd_bytes_served(), sim::Bytes::zero());
  EXPECT_GT(c.server(0).service_meter().mean_ms(), 0.0);
}

// Whole-cluster promotion of the mapping-table crash/recovery tests: the
// table's save/load cycle now runs inside a live cluster — a data server
// crashes mid-write-back, restarts, replays its mapping table, and drains
// the recovered dirty data in degraded mode.
TEST(ClusterFaults, CrashMidFlushMatchesNeverCrashedRun) {
  const check::FuzzCase healthy = check::generate_case(0x5ca1ab1e);
  check::FuzzCase crashy = healthy;
  fault::CrashSpec spec;
  spec.server = 0;
  spec.at = sim::SimTime::millis(1);
  spec.outage = sim::SimTime::millis(4);
  spec.phase = "batch.write";
  spec.drain_budget = 128 << 10;
  spec.drain_interval = sim::SimTime::millis(1);
  crashy.faults.seed = 5;
  crashy.faults.crashes.push_back(spec);

  check::RunReport hr;
  {
    Cluster cl(check::make_config(healthy, check::Policy::kIBridge));
    hr = check::run_case(cl, healthy, check::Policy::kIBridge);
  }
  check::RunReport cr;
  {
    Cluster cl(check::make_config(crashy, check::Policy::kIBridge));
    check::InvariantOracle oracle;
    cr = check::run_case(cl, crashy, check::Policy::kIBridge, &oracle);
    EXPECT_TRUE(oracle.ok()) << oracle.failures().front();
    EXPECT_GT(oracle.checks_run(), 0u);
  }
  ASSERT_TRUE(hr.ok()) << hr.failure;
  ASSERT_TRUE(cr.ok()) << cr.failure;
  // The crash may reorder and delay everything, but never change bytes.
  EXPECT_EQ(hr.payload_digest, cr.payload_digest);
  EXPECT_EQ(hr.image_digest, cr.image_digest);
  EXPECT_FALSE(hr.faulted);
  EXPECT_TRUE(cr.faulted);
}

TEST(ClusterFaults, RestartedServerComesBackCleanAndOnline) {
  check::FuzzCase c = check::generate_case(0xfeedULL);
  c.faults =
      fault::make_scenario(fault::Scenario::kCrashRestart,
                           c.base.data_servers, 0xfeedULL,
                           sim::SimTime::millis(30));
  ASSERT_FALSE(c.faults.empty());
  Cluster cl(check::make_config(c, check::Policy::kIBridge));
  const check::RunReport r = check::run_case(cl, c, check::Policy::kIBridge);
  ASSERT_TRUE(r.ok()) << r.failure;
  for (int s = 0; s < cl.server_count(); ++s) {
    EXPECT_FALSE(cl.server(s).offline()) << "server " << s;
    if (cl.server(s).has_cache()) {
      EXPECT_EQ(cl.server(s).cache()->table().dirty_bytes(),
                sim::Bytes::zero())
          << "server " << s;
    }
  }
}

}  // namespace
}  // namespace ibridge::cluster
