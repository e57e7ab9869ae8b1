// Tests for the HDD/SSD device models: service-time structure, calibration
// against the paper's Table II characteristics, anticipation behaviour, and
// completion plumbing.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "storage/calibration.hpp"
#include "storage/hdd.hpp"
#include "storage/scheduler.hpp"
#include "storage/ssd.hpp"

namespace ibridge::storage {
namespace {

using sim::SimTime;
using sim::Simulator;

HddParams quiet_hdd() {
  HddParams p = paper_hdd();
  p.anticipation_ms = 0.0;  // most tests want deterministic dispatch
  return p;
}

// Drive a list of requests through a device; nothing waits on them.
struct Harness {
  Simulator sim;

  template <typename Dev>
  void run(Dev& dev, const std::vector<BlockRequest>& reqs,
           SimTime spacing = SimTime::zero()) {
    SimTime at = SimTime::zero();
    for (const auto& r : reqs) {
      sim.schedule_at(at, [&dev, r] { dev.submit(r); });
      at += spacing;
    }
    sim.run();
  }
};

// ------------------------------------------------------------ HDD model ----

TEST(HddModel, SeekTimeIsMonotonic) {
  Simulator sim;
  HddModel d(sim, quiet_hdd());
  SimTime prev = SimTime::zero();
  for (std::int64_t dist = 1; dist < d.capacity_sectors() / 2; dist *= 4) {
    const SimTime t = d.seek_time(dist);
    EXPECT_GE(t, prev) << "distance " << dist;
    prev = t;
  }
  EXPECT_EQ(d.seek_time(0), SimTime::zero());
}

TEST(HddModel, SequentialContinuationIsTransferOnly) {
  Simulator sim;
  HddModel d(sim, quiet_hdd());
  // Head starts at 0; a request at LBN 0 is a continuation.
  const SimTime t = d.service_time(IoDirection::kRead, 0, 128);
  const double expect_s =
      128.0 * kSectorBytes / quiet_hdd().seq_read_bw + 50e-6;
  EXPECT_NEAR(t.to_seconds(), expect_s, 1e-6);
}

TEST(HddModel, NearHopChargesSettle) {
  Simulator sim;
  const HddParams p = quiet_hdd();
  HddModel d(sim, p);
  const SimTime near = d.service_time(IoDirection::kRead, 32, 8);
  const SimTime seq = d.service_time(IoDirection::kRead, 0, 8);
  EXPECT_NEAR((near - seq).to_millis(), p.near_settle_ms, 1e-6);
}

TEST(HddModel, FarSeekChargesSeekPlusRotation) {
  Simulator sim;
  const HddParams p = quiet_hdd();
  HddModel d(sim, p);
  const std::int64_t dist = 1'000'000;
  const SimTime t = d.service_time(IoDirection::kRead, dist, 8);
  const double expect_ms = d.seek_time(dist).to_millis() + p.rotation_ms;
  EXPECT_NEAR(t.to_millis(), expect_ms, 0.1);
}

TEST(HddModel, SmallRandomWritesPayPenalty) {
  Simulator sim;
  const HddParams p = quiet_hdd();
  HddModel d(sim, p);
  const std::int64_t dist = 1'000'000;
  const SimTime wr = d.service_time(IoDirection::kWrite, dist, 8);
  const SimTime rd = d.service_time(IoDirection::kRead, dist, 8);
  EXPECT_NEAR((wr - rd).to_millis(),
              p.write_settle_ms + p.small_write_penalty_ms, 0.05);
  // Large writes skip the small-write penalty.
  const SimTime wr_big = d.service_time(IoDirection::kWrite, dist, 256);
  const SimTime rd_big = d.service_time(IoDirection::kRead, dist, 256);
  const double delta =
      (wr_big - rd_big).to_millis() -
      (256.0 * kSectorBytes / p.seq_write_bw -
       256.0 * kSectorBytes / p.seq_read_bw) * 1e3;
  EXPECT_NEAR(delta, p.write_settle_ms, 0.05);
}

TEST(HddModel, IdleResyncChargedAfterGap) {
  Simulator sim;
  const HddParams p = quiet_hdd();
  HddModel d(sim, p);
  const SimTime busy = d.service_time(IoDirection::kRead, 0, 128, false);
  const SimTime idle = d.service_time(IoDirection::kRead, 0, 128, true);
  EXPECT_NEAR((idle - busy).to_millis(), p.idle_resync_ms, 1e-6);
}

TEST(HddModel, CompletionCarriesLatencyAndService) {
  Simulator sim;
  HddModel d(sim, quiet_hdd());
  sim::Completion<BlockCompletion> done;
  sim.schedule(SimTime::zero(),
               [&] { d.submit({IoDirection::kRead, 1000, 8, 0}, &done); });
  sim.run();
  ASSERT_TRUE(done.ready());
  const auto& c = done.get();
  EXPECT_EQ(c.finished, c.latency);  // submitted at t=0
  EXPECT_GT(c.service, SimTime::zero());
  EXPECT_EQ(d.head_lbn(), 1008);
}

TEST(HddModel, BusyTimeAccumulates) {
  Harness h;
  HddModel d(h.sim, quiet_hdd());
  h.run(d, {{IoDirection::kRead, 0, 128, 0}, {IoDirection::kRead, 128, 128, 0}});
  EXPECT_GT(d.busy_time(), SimTime::zero());
  EXPECT_EQ(d.bytes_read(), 2 * 128 * kSectorBytes);
}

TEST(HddModel, TraceRecordsDispatches) {
  Harness h;
  HddModel d(h.sim, quiet_hdd());
  d.trace().set_enabled(true);
  h.run(d, {{IoDirection::kRead, 0, 128, 0}});
  EXPECT_EQ(d.trace().requests(), 1u);
  EXPECT_EQ(d.trace().size_histogram().count(128), 1u);
}

TEST(HddModel, BackToBackContiguousRequestsMerge) {
  // Two contiguous requests submitted at the same tick dispatch as one
  // batch: one trace entry, both records complete together.
  Simulator sim;
  HddModel d(sim, quiet_hdd());
  d.trace().set_enabled(true);
  sim::Completion<BlockCompletion> f1, f2;
  sim.schedule(SimTime::zero(), [&] {
    d.submit({IoDirection::kRead, 5000, 128, 0}, &f1);
    d.submit({IoDirection::kRead, 5128, 128, 1}, &f2);
  });
  sim.run();
  EXPECT_EQ(d.trace().requests(), 1u);
  EXPECT_EQ(d.trace().size_histogram().count(256), 1u);
  EXPECT_EQ(f1.get().finished, f2.get().finished);
}

TEST(HddModel, AnticipationWaitsForSameStream) {
  // After serving stream 7, a far request from stream 8 must wait out the
  // anticipation window; a new near arrival from stream 7 dispatches first.
  Simulator sim;
  HddParams p = quiet_hdd();
  p.anticipation_ms = 2.0;
  HddModel d(sim, p);
  std::vector<int> order;
  auto track = [&](int id) {
    return [&order, id](const BlockCompletion&) { order.push_back(id); };
  };
  (void)track;

  sim::Completion<BlockCompletion> a, b, c;
  sim.schedule(SimTime::zero(),
               [&] { d.submit({IoDirection::kRead, 0, 64, 7}, &a); });
  // While idle-waiting after A, a far competitor arrives...
  sim.schedule(SimTime::micros(200),
               [&] { d.submit({IoDirection::kRead, 2'000'000, 64, 8}, &b); });
  // ...and then stream 7's continuation.
  sim.schedule(SimTime::micros(400),
               [&] { d.submit({IoDirection::kRead, 200, 64, 7}, &c); });
  sim.run();
  ASSERT_TRUE(a.ready() && b.ready() && c.ready());
  EXPECT_LT(c.get().finished, b.get().finished)
      << "anticipation must favour the last-served stream";
}

TEST(HddModel, AnticipationTimerExpiresAndServesOther) {
  Simulator sim;
  HddParams p = quiet_hdd();
  p.anticipation_ms = 1.0;
  HddModel d(sim, p);
  sim::Completion<BlockCompletion> a, b;
  sim.schedule(SimTime::zero(),
               [&] { d.submit({IoDirection::kRead, 0, 64, 1}, &a); });
  sim.schedule(SimTime::micros(100),
               [&] { d.submit({IoDirection::kRead, 2'000'000, 64, 2}, &b); });
  sim.run();
  ASSERT_TRUE(b.ready());
  // b waited for a's service plus the full anticipation window.
  EXPECT_GT(b.get().latency.to_millis(), 1.0);
}

// ------------------------------------------------------------ SSD model ----

TEST(SsdModel, SequentialFasterThanRandom) {
  Simulator sim;
  SsdModel d(sim, paper_ssd());
  const SimTime r1 = d.service_time(IoDirection::kRead, 0, 8);
  // service_time() inspects stream state; simulate a streaming read at 0.
  Harness h;
  SsdModel dev(h.sim, paper_ssd());
  h.run(dev, {{IoDirection::kRead, 0, 8, 0}, {IoDirection::kRead, 8, 8, 0}});
  // After the first read, the second is a continuation -> cheaper.
  EXPECT_GT(r1, dev.service_time(IoDirection::kRead, 16, 8));
}

TEST(SsdModel, Calibration4kMatchesTableII) {
  // Table II: 4 KB requests; random read 60 MB/s, random write 30 MB/s.
  Simulator sim;
  SsdModel d(sim, paper_ssd());
  const double rd_us =
      d.service_time(IoDirection::kRead, 999'999, 8).to_micros();
  const double wr_us =
      d.service_time(IoDirection::kWrite, 999'999, 8).to_micros();
  const double rd_mbps = 4096.0 / (rd_us / 1e6) / 1e6;
  const double wr_mbps = 4096.0 / (wr_us / 1e6) / 1e6;
  EXPECT_NEAR(rd_mbps, 60.0, 6.0);
  EXPECT_NEAR(wr_mbps, 30.0, 3.0);
}

TEST(SsdModel, StreamingMatchesTableIISequentialRates) {
  for (const bool write : {false, true}) {
    Harness h;
    SsdModel d(h.sim, paper_ssd());
    std::vector<BlockRequest> reqs;
    const std::int64_t chunk = 2048;  // 1 MB
    for (int i = 0; i < 64; ++i) {
      reqs.push_back({write ? IoDirection::kWrite : IoDirection::kRead,
                      i * chunk, chunk, 0});
    }
    h.run(d, reqs);
    const double bytes = 64.0 * chunk * kSectorBytes;
    const double mbps = bytes / h.sim.now().to_seconds() / 1e6;
    EXPECT_NEAR(mbps, write ? 140.0 : 160.0, write ? 7.0 : 8.0);
  }
}

TEST(SsdModel, ChannelsServeConcurrently) {
  SsdParams p = paper_ssd();
  p.channels = 2;
  Harness h2;
  SsdModel d2(h2.sim, p);
  // Two far-apart (non-mergeable) random reads.
  h2.run(d2, {{IoDirection::kRead, 0, 8, 0},
              {IoDirection::kRead, 1'000'000, 8, 1}});
  const SimTime t2 = h2.sim.now();

  p.channels = 1;
  Harness h1;
  SsdModel d1(h1.sim, p);
  h1.run(d1, {{IoDirection::kRead, 0, 8, 0},
              {IoDirection::kRead, 1'000'000, 8, 1}});
  EXPECT_LT(t2, h1.sim.now());
}

// ----------------------------------------------- HDD vs SSD, Table II ----

TEST(Calibration, SsdBeatsHddOnRandomAccessByAnOrderOfMagnitude) {
  Simulator sim;
  HddModel hdd(sim, quiet_hdd());
  SsdModel ssd(sim, paper_ssd());
  const std::int64_t far = 500'000'000;  // 250 GB into the disk
  const double hdd_ms =
      hdd.service_time(IoDirection::kRead, far, 8).to_millis();
  const double ssd_ms =
      ssd.service_time(IoDirection::kRead, far % ssd.capacity_sectors(), 8)
          .to_millis();
  EXPECT_GT(hdd_ms / ssd_ms, 10.0);
}

TEST(Calibration, HddStreamingMatchesTableIISequentialRates) {
  for (const bool write : {false, true}) {
    Harness h;
    HddModel d(h.sim, quiet_hdd());
    std::vector<BlockRequest> reqs;
    const std::int64_t chunk = 2048;
    for (int i = 0; i < 64; ++i) {
      reqs.push_back({write ? IoDirection::kWrite : IoDirection::kRead,
                      i * chunk, chunk, 0});
    }
    h.run(d, reqs);
    const double bytes = 64.0 * chunk * kSectorBytes;
    const double mbps = bytes / h.sim.now().to_seconds() / 1e6;
    EXPECT_NEAR(mbps, write ? 80.0 : 85.0, write ? 8.0 : 8.5);
  }
}

TEST(Calibration, HddRandomWriteSlowerThanRandomRead) {
  // Table II's qualitative ordering: random writes are markedly slower
  // than random reads (5 vs 15 MB/s on the paper's disk).
  Simulator sim;
  HddModel d(sim, quiet_hdd());
  const std::int64_t far = 300'000'000;
  const double rd = d.service_time(IoDirection::kRead, far, 8).to_millis();
  const double wr = d.service_time(IoDirection::kWrite, far, 8).to_millis();
  EXPECT_GT(wr / rd, 1.3);
}

}  // namespace
}  // namespace ibridge::storage
