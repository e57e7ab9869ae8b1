// Tests for the exp layer: the deterministic parallel Runner, BENCH gauge
// JSON, checked CLI parsing — and the headline property the whole subsystem
// exists to uphold: parallel experiment execution is byte-identical to
// serial.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/differential.hpp"
#include "check/generator.hpp"
#include "exp/cli.hpp"
#include "exp/gauge.hpp"
#include "exp/runner.hpp"
#include "sim/rng.hpp"
#include "stats/sketch.hpp"

namespace ibridge::exp {
namespace {

// -------------------------------------------------------------- Runner ----

TEST(Runner, MapCommitsResultsInSubmissionOrder) {
  Runner r(8);
  const std::vector<int> out =
      r.map<int>(100, [](int i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(out[static_cast<std::size_t>(i)], i * i);
}

TEST(Runner, ZeroAndNegativeJobsCountsRunInline) {
  for (int jobs : {0, 1, -3}) {
    Runner r(jobs);
    std::vector<std::thread::id> ids = r.map<std::thread::id>(
        4, [](int) { return std::this_thread::get_id(); });
    for (const auto& id : ids) EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(Runner, WorkersActuallyRunOffThread) {
  Runner r(4);
  std::atomic<int> off_thread{0};
  const auto caller = std::this_thread::get_id();
  r.run(32, [&](int) {
    if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
  });
  EXPECT_GT(off_thread.load(), 0);
}

TEST(Runner, EmptyBatchIsANoOp) {
  Runner r(4);
  EXPECT_TRUE(r.map<int>(0, [](int i) { return i; }).empty());
  EXPECT_TRUE(r.map<int>(-5, [](int i) { return i; }).empty());
}

TEST(Runner, FirstExceptionPropagatesAndOtherJobsStillRun) {
  Runner r(4);
  std::atomic<int> ran{0};
  EXPECT_THROW(r.run(40,
                     [&](int i) {
                       ran.fetch_add(1);
                       if (i == 7) throw std::runtime_error("job 7 boom");
                     }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 40);
  // The pool survives a throwing batch.
  EXPECT_EQ(r.map<int>(3, [](int i) { return i + 1; }),
            (std::vector<int>{1, 2, 3}));
}

TEST(Runner, ReusableAcrossBatches) {
  Runner r(2);
  for (int batch = 0; batch < 5; ++batch) {
    const auto out = r.map<int>(10, [&](int i) { return batch * 100 + i; });
    for (int i = 0; i < 10; ++i)
      EXPECT_EQ(out[static_cast<std::size_t>(i)], batch * 100 + i);
  }
}

TEST(Runner, DefaultJobsIsClamped) {
  EXPECT_GE(Runner::default_jobs(), 1);
  EXPECT_LE(Runner::default_jobs(), 16);
}

TEST(Runner, ProgressSnapshotsArriveOnCallingThread) {
  for (int jobs : {1, 4}) {
    Runner r(jobs);
    const auto caller = std::this_thread::get_id();
    std::vector<Runner::Progress> seen;
    bool off_thread = false;
    r.set_progress(
        [&](const Runner::Progress& p) {
          if (std::this_thread::get_id() != caller) off_thread = true;
          seen.push_back(p);
        },
        0.01);
    r.run(12, [](int) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    });

    ASSERT_FALSE(seen.empty()) << "jobs=" << jobs;
    EXPECT_FALSE(off_thread) << "progress must run on the calling thread";
    EXPECT_EQ(seen.back().completed, 12) << "final snapshot sees the batch";
    EXPECT_EQ(seen.back().total, 12);
    EXPECT_GE(seen.back().seconds, 0.0);
    for (std::size_t i = 1; i < seen.size(); ++i) {
      EXPECT_LE(seen[i - 1].completed, seen[i].completed) << "monotonic";
    }

    // Detaching stops delivery; the runner keeps working.
    r.set_progress(nullptr);
    const std::size_t before = seen.size();
    EXPECT_EQ(r.map<int>(3, [](int i) { return i; }),
              (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(seen.size(), before);
  }
}

TEST(Runner, SketchMetricOutputIsJobCountInvariant) {
  // Bounded-memory metrics keep the headline guarantee: sketches fed
  // per-job deterministic streams produce byte-identical percentiles and
  // digests whatever the worker count.
  auto build = [](int jobs) {
    Runner r(jobs);
    const auto cells = r.map<std::string>(6, [](int i) {
      stats::QuantileSketch lat_ms, bytes;
      sim::Rng rng(0xC0FFEEu + static_cast<std::uint64_t>(i));
      for (int k = 0; k < 5000; ++k) {
        lat_ms.add(0.25 + 40.0 * rng.uniform01());
        bytes.add(static_cast<double>(1 + rng.below(1 << 20)));
      }
      std::ostringstream os;
      for (const stats::QuantileSketch* sk : {&lat_ms, &bytes}) {
        os << sk->count() << ',' << sk->mean() << ',' << sk->percentile(50.0)
           << ',' << sk->percentile(99.0) << ',' << sk->max() << '#'
           << sk->digest() << '\n';
      }
      return os.str();
    });
    std::string all;
    for (const std::string& s : cells) all += s;
    return all;
  };
  EXPECT_EQ(build(1), build(8));
}

TEST(Gauge, PeakRssIsMeasurable) {
  const double mb = peak_rss_mb();
  EXPECT_GT(mb, 0.0) << "VmHWM should parse on Linux";
  EXPECT_LT(mb, 1e6) << "sanity: under a terabyte";
}

TEST(Gauge, PeakRssRusageFallbackIsMeasurable) {
  // The getrusage path must stand on its own (it is what peak_rss_mb()
  // returns on hosts without procfs) and agree with VmHWM to within a
  // factor — both measure the same high-water mark, in different units.
  const double mb = peak_rss_mb_rusage();
  EXPECT_GT(mb, 0.0) << "getrusage(RUSAGE_SELF) should work on POSIX";
  EXPECT_LT(mb, 1e6);
  const double vmhwm = peak_rss_mb();
  EXPECT_GT(mb, vmhwm * 0.5);
  EXPECT_LT(mb, vmhwm * 2.0 + 1.0);
}

// ------------------------------------------- parallel == serial, proven ----

struct CaseDigests {
  std::uint64_t payload = 0, image = 0, sd = 0, si = 0, ss = 0, events = 0;
  bool operator==(const CaseDigests&) const = default;
};

CaseDigests digest_case(std::uint64_t seed) {
  const check::FuzzCase c = check::generate_case(seed);
  const check::DiffReport d = check::run_differential(c);
  CaseDigests out;
  out.payload = d.ibridge.payload_digest;
  out.image = d.ibridge.image_digest;
  out.sd = d.disk.stats_digest;
  out.si = d.ibridge.stats_digest;
  out.ss = d.ssd.stats_digest;
  out.events = d.ibridge.events;
  return out;
}

TEST(Runner, DifferentialDigestsAreJobCountInvariant) {
  constexpr int kCases = 8;
  Runner serial(1), pool(8);
  const auto ser = serial.map<CaseDigests>(
      kCases, [](int i) { return digest_case(0xD15C0ULL + static_cast<std::uint64_t>(i)); });
  const auto par = pool.map<CaseDigests>(
      kCases, [](int i) { return digest_case(0xD15C0ULL + static_cast<std::uint64_t>(i)); });
  ASSERT_EQ(ser.size(), par.size());
  for (int i = 0; i < kCases; ++i) {
    EXPECT_EQ(ser[static_cast<std::size_t>(i)], par[static_cast<std::size_t>(i)])
        << "case " << i << " diverged between --jobs 1 and --jobs 8";
  }
}

TEST(Runner, GaugeModelSectionIsJobCountInvariant) {
  // The exact projection CI compares: Gauge::json(/*include_wall=*/false)
  // built from parallel results must match the serial build byte-for-byte.
  auto build = [](int jobs) {
    Runner r(jobs);
    const auto digests = r.map<CaseDigests>(
        6, [](int i) { return digest_case(0xBEEFULL + static_cast<std::uint64_t>(i)); });
    Gauge g("determinism_probe");
    for (std::size_t i = 0; i < digests.size(); ++i) {
      g.set("case" + std::to_string(i) + ".events",
            static_cast<double>(digests[i].events));
      g.set("case" + std::to_string(i) + ".payload",
            static_cast<double>(digests[i].payload));
    }
    g.set_wall("jobs", jobs);  // wall differs; model must not
    return g.json(/*include_wall=*/false);
  };
  EXPECT_EQ(build(1), build(8));
}

// --------------------------------------------------------------- Gauge ----

TEST(Gauge, JsonShapeAndWallExclusion) {
  Gauge g("shape");
  g.set("b", 2.5);
  g.set("a", 1.0);
  g.set_wall("seconds", 0.25);
  const std::string full = g.json();
  EXPECT_NE(full.find("\"bench\": \"shape\""), std::string::npos);
  EXPECT_NE(full.find("\"schema\": \"ibridge-bench-gauge-v1\""),
            std::string::npos);
  EXPECT_NE(full.find("\"wall\""), std::string::npos);
  EXPECT_LT(full.find("\"a\""), full.find("\"b\""));  // sorted keys

  const std::string model_only = g.json(/*include_wall=*/false);
  EXPECT_EQ(model_only.find("\"wall\""), std::string::npos);
  EXPECT_EQ(model_only.find("seconds"), std::string::npos);
}

TEST(Gauge, WriteFileEmitsBenchJson) {
  Gauge g("unit_probe");
  g.set("x", 42.0);
  const std::string dir = ::testing::TempDir();
  ASSERT_TRUE(g.write_file(dir));
  std::ifstream in(dir + "/BENCH_unit_probe.json");
  ASSERT_TRUE(in.good());
  std::stringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), g.json());
  std::remove((dir + "/BENCH_unit_probe.json").c_str());
}

TEST(Gauge, NumbersRoundTripAtFullPrecision) {
  Gauge g("prec");
  g.set("v", 0.1 + 0.2);  // not representable as a short decimal
  const std::string j = g.json();
  double parsed = 0;
  const auto pos = j.find("\"v\": ");
  ASSERT_NE(pos, std::string::npos);
  parsed = std::stod(j.substr(pos + 5));
  EXPECT_EQ(parsed, 0.1 + 0.2);
}

// ----------------------------------------------------------------- cli ----

TEST(Cli, ParseIntAcceptsExactIntegers) {
  EXPECT_EQ(parse_int("0"), 0);
  EXPECT_EQ(parse_int("12345"), 12345);
  EXPECT_EQ(parse_int("-7"), -7);
  EXPECT_EQ(parse_int("0x10"), 16);
  EXPECT_EQ(parse_int("0X1f"), 31);
  EXPECT_EQ(parse_int("-0x10"), -16);
  EXPECT_EQ(parse_int("9223372036854775807"), INT64_MAX);
}

TEST(Cli, ParseIntRejectsGarbageAndOverflow) {
  EXPECT_FALSE(parse_int("").has_value());
  EXPECT_FALSE(parse_int("10O").has_value());  // the atoi footgun: typo'd O
  EXPECT_FALSE(parse_int("12 ").has_value());
  EXPECT_FALSE(parse_int(" 12").has_value());
  EXPECT_FALSE(parse_int("1.5").has_value());
  EXPECT_FALSE(parse_int("-").has_value());
  EXPECT_FALSE(parse_int("0x").has_value());
  EXPECT_FALSE(parse_int("9223372036854775808").has_value());  // INT64_MAX+1
  EXPECT_FALSE(parse_int("99999999999999999999999").has_value());
}

TEST(Cli, ParseIntEnforcesRange) {
  EXPECT_EQ(parse_int("5", 1, 10), 5);
  EXPECT_FALSE(parse_int("0", 1, 10).has_value());
  EXPECT_FALSE(parse_int("11", 1, 10).has_value());
  EXPECT_EQ(parse_int("1", 1, 10), 1);
  EXPECT_EQ(parse_int("10", 1, 10), 10);
}

TEST(Cli, ParseU64AcceptsFullRangeRejectsSign) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parse_u64("0xdeadbeef"), 0xdeadbeefULL);
  EXPECT_FALSE(parse_u64("-1").has_value());
  EXPECT_FALSE(parse_u64("18446744073709551616").has_value());
  EXPECT_FALSE(parse_u64("seed").has_value());
}

}  // namespace
}  // namespace ibridge::exp
