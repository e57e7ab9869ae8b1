// Tests for the statistics accumulators, blktrace recorder, and table
// printers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "stats/blocktrace.hpp"
#include "stats/histogram.hpp"
#include "stats/meters.hpp"
#include "stats/sketch.hpp"
#include "stats/table.hpp"

namespace ibridge::stats {
namespace {

TEST(Summary, BasicMoments) {
  Summary s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Summary, EmptyIsZero) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(Summary, MergeMatchesCombinedStream) {
  Summary a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = i * 0.7;
    (i % 2 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Summary, MergeWithEmptySides) {
  Summary a, empty;
  a.add(3.0);
  Summary c = a;
  c.merge(empty);
  EXPECT_EQ(c.count(), 1u);
  Summary d = empty;
  d.merge(a);
  EXPECT_EQ(d.count(), 1u);
  EXPECT_DOUBLE_EQ(d.mean(), 3.0);
}

TEST(IntHistogram, CountsAndFractions) {
  IntHistogram h;
  h.add(128, 72);
  h.add(256, 18);
  h.add(2, 10);
  EXPECT_EQ(h.total(), 100u);
  EXPECT_EQ(h.count(128), 72u);
  EXPECT_DOUBLE_EQ(h.fraction(128), 0.72);
  EXPECT_DOUBLE_EQ(h.fraction(999), 0.0);
}

TEST(IntHistogram, TopIsSortedByCount) {
  IntHistogram h;
  h.add(1, 5);
  h.add(2, 50);
  h.add(3, 20);
  auto top = h.top(2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].first, 2);
  EXPECT_EQ(top[1].first, 3);
}

TEST(IntHistogram, WeightedMean) {
  IntHistogram h;
  h.add(10, 1);
  h.add(30, 3);
  EXPECT_DOUBLE_EQ(h.mean(), 25.0);
}

TEST(IntHistogram, KeysSortedAndClear) {
  IntHistogram h;
  h.add(5);
  h.add(1);
  h.add(9);
  EXPECT_EQ(h.keys(), (std::vector<std::int64_t>{1, 5, 9}));
  h.clear();
  EXPECT_EQ(h.total(), 0u);
}

TEST(BlockTraceRecorder, RoundsBytesUpToSectors) {
  BlockTraceRecorder r;
  r.record(sim::SimTime::zero(), IoDirection::kRead, 0, sim::Bytes{1024},
           sim::SimTime::millis(1));
  r.record(sim::SimTime::zero(), IoDirection::kRead, 0, sim::Bytes{1025},
           sim::SimTime::millis(1));
  EXPECT_EQ(r.size_histogram().count(2), 1u);
  EXPECT_EQ(r.size_histogram().count(3), 1u);
  EXPECT_EQ(r.requests(), 2u);
  EXPECT_EQ(r.read_bytes(), sim::Bytes{2049});
}

TEST(BlockTraceRecorder, DisabledRecordsNothing) {
  BlockTraceRecorder r;
  r.set_enabled(false);
  r.record(sim::SimTime::zero(), IoDirection::kWrite, 0, sim::Bytes{512},
           sim::SimTime::millis(1));
  EXPECT_EQ(r.requests(), 0u);
  EXPECT_EQ(r.write_bytes(), sim::Bytes::zero());
}

TEST(BlockTraceRecorder, KeepsEntriesOnlyWhenAsked) {
  BlockTraceRecorder r;
  r.record(sim::SimTime::zero(), IoDirection::kRead, 7, sim::Bytes{512},
           sim::SimTime::millis(1));
  EXPECT_TRUE(r.entries().empty());
  r.set_keep_entries(true);
  r.record(sim::SimTime::millis(2), IoDirection::kWrite, 9, sim::Bytes{512},
           sim::SimTime::millis(3));
  ASSERT_EQ(r.entries().size(), 1u);
  EXPECT_EQ(r.entries()[0].lbn, 9);
  EXPECT_EQ(r.entries()[0].dir, IoDirection::kWrite);
}

TEST(Table, AlignsColumnsAndEmitsCsv) {
  Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| alpha"), std::string::npos);
  EXPECT_NE(s.find("| name"), std::string::npos);
  EXPECT_EQ(t.to_csv(), "name,value\nalpha,1\nb,22222\n");
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(Table::fmt("%.1f", 3.14), "3.1");
  EXPECT_EQ(Table::fmt("%lld", 7LL), "7");
}

TEST(Histogram, EmptyPercentilesAreZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 0.0);
  EXPECT_DOUBLE_EQ(h.median(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, SingleSampleIsEveryPercentile) {
  Histogram h;
  h.add(42.5);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 42.5);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 42.5);
  EXPECT_DOUBLE_EQ(h.median(), 42.5);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 42.5);
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 42.5);
}

TEST(Histogram, NearestRankPercentiles) {
  Histogram h;
  // Unsorted insert order; percentile() sorts lazily.
  for (double x : {50.0, 10.0, 40.0, 20.0, 30.0}) h.add(x);
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 10.0);
  EXPECT_DOUBLE_EQ(h.percentile(20.0), 10.0);   // ceil(1.0) -> rank 1
  EXPECT_DOUBLE_EQ(h.percentile(50.0), 30.0);   // ceil(2.5) -> rank 3
  EXPECT_DOUBLE_EQ(h.percentile(90.0), 50.0);   // ceil(4.5) -> rank 5
  EXPECT_DOUBLE_EQ(h.percentile(100.0), 50.0);
  EXPECT_DOUBLE_EQ(h.mean(), 30.0);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 50.0);
}

TEST(Histogram, DuplicateHeavySamples) {
  Histogram h;
  for (int i = 0; i < 99; ++i) h.add(1.0);
  h.add(1000.0);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.median(), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(99.5), 1000.0);  // ceil(99.5) -> rank 100
  EXPECT_DOUBLE_EQ(h.max(), 1000.0);
}

TEST(Histogram, MergeAndClear) {
  Histogram a, b;
  a.add(1.0);
  a.add(2.0);
  b.add(3.0);
  // Interleave percentile queries with adds: the lazy sort must re-arm.
  EXPECT_DOUBLE_EQ(a.median(), 1.0);
  a.add(0.5);
  EXPECT_DOUBLE_EQ(a.percentile(0.0), 0.5);
  a.merge(b);
  EXPECT_EQ(a.count(), 4u);
  EXPECT_DOUBLE_EQ(a.max(), 3.0);
  EXPECT_DOUBLE_EQ(a.percentile(100.0), 3.0);
  a.clear();
  EXPECT_EQ(a.count(), 0u);
  EXPECT_DOUBLE_EQ(a.percentile(50.0), 0.0);
}

TEST(Histogram, IncrementalSortAndMergeMatchFullSort) {
  // Adds, queries and merges interleave as under the metrics sampler: three
  // growing histograms, one of them queried between rounds, merged into a
  // fresh one each round.  Every percentile must be the nearest-rank order
  // statistic of a full sort of all samples.
  sim::Rng rng(11);
  Histogram parts[3];
  std::vector<double> all;
  for (int round = 0; round < 12; ++round) {
    for (auto& h : parts) {
      for (int i = 0; i < 40; ++i) {
        const double x = static_cast<double>(rng.below(64)) - 16.0 +
                         (rng.chance(0.5) ? rng.uniform01() : 0.0);
        h.add(x);
        all.push_back(x);
      }
    }
    (void)parts[0].median();
    Histogram merged;
    for (const auto& h : parts) merged.merge(h);
    std::vector<double> ref = all;
    std::sort(ref.begin(), ref.end());
    ASSERT_EQ(merged.count(), ref.size());
    for (double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0}) {
      const auto rank = static_cast<std::size_t>(
          std::ceil(p / 100.0 * static_cast<double>(ref.size())));
      EXPECT_EQ(merged.percentile(p), ref[rank == 0 ? 0 : rank - 1]) << p;
    }
  }
}

TEST(ServiceTimeMeter, AveragesMillis) {
  ServiceTimeMeter m;
  m.add(sim::SimTime::millis(10));
  m.add(sim::SimTime::millis(20));
  EXPECT_DOUBLE_EQ(m.mean_ms(), 15.0);
  EXPECT_EQ(m.count(), 2u);
}

TEST(ServiceTimeMeter, SketchBackedTailsAreAlwaysOn) {
  ServiceTimeMeter m;
  for (int i = 1; i <= 100; ++i) m.add(sim::SimTime::millis(i));
  EXPECT_NEAR(m.p50_ms(), 50.0, 50.0 * m.sketch().relative_error());
  EXPECT_NEAR(m.p99_ms(), 99.0, 99.0 * m.sketch().relative_error());
  EXPECT_EQ(m.sketch().count(), 100u);
}

// ---- bounded quantile estimators ----

std::vector<double> constant_stream(int n) {
  return std::vector<double>(static_cast<std::size_t>(n), 42.0);
}

std::vector<double> bimodal_stream(int n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    v.push_back(rng.uniform01() < 0.5 ? 1.0 + rng.uniform01()
                                      : 100.0 + 10.0 * rng.uniform01());
  }
  return v;
}

std::vector<double> heavy_tail_stream(int n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<double> v;
  v.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    v.push_back(std::ldexp(1.0, static_cast<int>(rng.below(20))) *
                (1.0 + rng.uniform01()));
  }
  return v;
}

TEST(QuantileSketch, WithinRelativeErrorOnAdversarialDistributions) {
  const std::vector<std::vector<double>> streams = {
      constant_stream(5000), bimodal_stream(5000, 11),
      heavy_tail_stream(5000, 12)};
  for (const auto& stream : streams) {
    QuantileSketch sk;
    Histogram exact;
    for (double x : stream) {
      sk.add(x);
      exact.add(x);
    }
    for (double p : {50.0, 95.0, 99.0}) {
      const double e = exact.percentile(p);
      EXPECT_NEAR(sk.percentile(p), e, e * sk.relative_error() + 1e-12)
          << "p" << p << " over a " << stream.size() << "-sample stream";
    }
    EXPECT_EQ(sk.count(), exact.count());
    EXPECT_DOUBLE_EQ(sk.min(), exact.min());
    EXPECT_DOUBLE_EQ(sk.max(), exact.max());
  }
}

TEST(QuantileSketch, MergeIsExactAndOrderInsensitive) {
  const auto stream = heavy_tail_stream(3000, 21);
  QuantileSketch whole;
  for (double x : stream) whole.add(x);

  QuantileSketch part[3];
  for (std::size_t i = 0; i < stream.size(); ++i) part[i % 3].add(stream[i]);

  QuantileSketch ab = part[0];
  ab.merge(part[1]);
  ab.merge(part[2]);                     // (a+b)+c
  QuantileSketch bc = part[1];
  bc.merge(part[2]);
  QuantileSketch a_bc = part[0];
  a_bc.merge(bc);                        // a+(b+c)

  EXPECT_EQ(ab.digest(), whole.digest());
  EXPECT_EQ(a_bc.digest(), whole.digest());
  for (double p : {10.0, 50.0, 90.0, 99.0}) {
    EXPECT_DOUBLE_EQ(ab.percentile(p), whole.percentile(p));
    EXPECT_DOUBLE_EQ(a_bc.percentile(p), whole.percentile(p));
  }
}

TEST(QuantileSketch, DigestIsDeterministicAndDiscriminates) {
  QuantileSketch a, b, c;
  for (double x : bimodal_stream(500, 3)) {
    a.add(x);
    b.add(x);
  }
  for (double x : bimodal_stream(500, 4)) c.add(x);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_NE(a.digest(), c.digest());
  EXPECT_NE(a.digest(), QuantileSketch().digest());
}

TEST(QuantileSketch, MemoryStaysBoundedRegardlessOfSampleCount) {
  // Torture stream spanning 40 octaves: the bucket table saturates and then
  // stops growing no matter how many more samples arrive — the O(1) bound.
  QuantileSketch sk;
  sim::Rng rng(5);
  const auto draw = [&] {
    return std::ldexp(1.0, static_cast<int>(rng.below(40)) - 15) *
           (1.0 + rng.uniform01());
  };
  for (int i = 0; i < 100000; ++i) sk.add(draw());
  const std::size_t saturated = sk.memory_bytes();
  for (int i = 0; i < 100000; ++i) sk.add(draw());
  EXPECT_EQ(sk.count(), 200000u);
  EXPECT_EQ(sk.memory_bytes(), saturated) << "memory must not grow further";
  EXPECT_LE(sk.bucket_count(),
            static_cast<std::size_t>(QuantileSketch::kMaxExp -
                                     QuantileSketch::kMinExp) *
                static_cast<std::size_t>(QuantileSketch::kBucketsPerOctave));

  // A realistic latency metric (two modes, ms scale) stays under the
  // 64 KiB per-metric budget bench_obs --check enforces.
  QuantileSketch lat;
  for (double x : bimodal_stream(100000, 9)) lat.add(x);
  EXPECT_LE(lat.memory_bytes(), 64u * 1024u);
}

TEST(QuantileSketch, OutOfRangeSamplesKeepExactExtremes) {
  QuantileSketch sk;
  sk.add(-5.0);   // below range (underflow)
  sk.add(0.0);    // not a positive value (underflow)
  sk.add(1e15);   // above range (overflow)
  sk.add(3.0);
  EXPECT_EQ(sk.count(), 4u);
  EXPECT_DOUBLE_EQ(sk.percentile(0.0), -5.0);
  EXPECT_DOUBLE_EQ(sk.percentile(100.0), 1e15);
  EXPECT_DOUBLE_EQ(sk.percentile(1.0), -5.0) << "underflow ranks first";
}

}  // namespace
}  // namespace ibridge::stats
