// Tests for offline disk profiling: the learned SeekProfile must track the
// ground-truth device model closely enough for iBridge's Equation (1).
#include <gtest/gtest.h>

#include "sim/simulator.hpp"
#include "storage/calibration.hpp"
#include "storage/hdd.hpp"
#include "storage/profiler.hpp"

namespace ibridge::storage {
namespace {

SeekProfile learn(const HddParams& params) {
  sim::Simulator sim;
  HddParams p = params;
  p.anticipation_ms = 0.0;
  HddModel disk(sim, p);
  return profile_device(sim, disk);
}

TEST(SeekProfile, InterpolatesBetweenSamples) {
  SeekProfile p({{100, 1.0}, {1000, 2.0}});
  EXPECT_NEAR(p.seek_time(550).to_millis(), 1.5, 1e-9);
  EXPECT_NEAR(p.seek_time(100).to_millis(), 1.0, 1e-9);
  EXPECT_NEAR(p.seek_time(1000).to_millis(), 2.0, 1e-9);
  // Clamps at the ends.
  EXPECT_NEAR(p.seek_time(10).to_millis(), 1.0, 1e-9);
  EXPECT_NEAR(p.seek_time(1'000'000).to_millis(), 2.0, 1e-9);
  EXPECT_EQ(p.seek_time(0), sim::SimTime::zero());
}

TEST(SeekProfile, MonotonisesNoisySamples) {
  SeekProfile p({{100, 2.0}, {1000, 1.0}});  // decreasing input
  EXPECT_GE(p.seek_time(1000), p.seek_time(100));
}

TEST(SeekProfile, EmptyProfileIsZero) {
  SeekProfile p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.seek_time(12345), sim::SimTime::zero());
}

TEST(DeviceProfiler, LearnsPeakBandwidths) {
  const HddParams truth = paper_hdd();
  const SeekProfile p = learn(truth);
  EXPECT_NEAR(p.peak_bandwidth(), truth.seq_read_bw,
              truth.seq_read_bw * 0.10);
  EXPECT_NEAR(p.peak_write_bandwidth(), truth.seq_write_bw,
              truth.seq_write_bw * 0.10);
}

TEST(DeviceProfiler, LearnsWriteSurcharges) {
  const HddParams truth = paper_hdd();
  const SeekProfile p = learn(truth);
  EXPECT_NEAR(p.write_surcharge_ms(sim::Bytes{4096}),
              truth.write_settle_ms + truth.small_write_penalty_ms, 0.5);
  EXPECT_NEAR(p.write_surcharge_ms(sim::Bytes{64 * 1024}), truth.write_settle_ms, 0.5);
}

TEST(DeviceProfiler, SeekCurveTracksGroundTruth) {
  const HddParams truth = paper_hdd();
  const SeekProfile p = learn(truth);
  sim::Simulator scratch;
  HddModel ref(scratch, truth);
  // Across three decades of distance the learned (seek+rotation) must be
  // within 30% of the model's true positioning cost.
  for (std::int64_t d : {50'000LL, 1'000'000LL, 50'000'000LL, 500'000'000LL}) {
    const double learned =
        p.seek_time(d).to_millis() + p.rotation().to_millis();
    const double actual =
        ref.seek_time(d).to_millis() + truth.rotation_ms;
    EXPECT_NEAR(learned, actual, actual * 0.30) << "distance " << d;
  }
}

TEST(DeviceProfiler, ProfilingIsDeterministic) {
  const SeekProfile a = learn(paper_hdd());
  const SeekProfile b = learn(paper_hdd());
  ASSERT_EQ(a.samples().size(), b.samples().size());
  for (std::size_t i = 0; i < a.samples().size(); ++i) {
    EXPECT_EQ(a.samples()[i].distance, b.samples()[i].distance);
    EXPECT_DOUBLE_EQ(a.samples()[i].ms, b.samples()[i].ms);
  }
  EXPECT_DOUBLE_EQ(a.peak_bandwidth(), b.peak_bandwidth());
}

}  // namespace
}  // namespace ibridge::storage
