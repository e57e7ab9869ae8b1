// Offline disk profiling: learning the seek-distance -> seek-time function.
//
// iBridge's server-side service-time model (Equation 1) needs D_to_T, "a
// function for converting the disk seek distance to seek time", which the
// paper obtains "from an offline profiling of the disk" following Huang et
// al. (FS2, SOSP'05).  We reproduce that honestly: profile_device() issues
// probe requests at controlled distances against a BlockDevice in a private
// simulation, measures the service times, and builds a piecewise-linear
// SeekProfile.  The iBridge runtime then uses only the learned profile, never
// the HddModel's internal parameters.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"
#include "sim/units.hpp"
#include "storage/block.hpp"

namespace ibridge::storage {

/// Piecewise-linear interpolation of seek time as a function of seek
/// distance (sectors).  Monotonised so noisy samples cannot produce a
/// decreasing curve.
class SeekProfile {
 public:
  struct Sample {
    std::int64_t distance;  // sectors
    double ms;              // measured seek + settle time
  };

  SeekProfile() = default;
  explicit SeekProfile(std::vector<Sample> samples);

  /// D_to_T: interpolated seek time for a given distance.
  sim::SimTime seek_time(std::int64_t distance_sectors) const;

  /// The rotational-latency estimate extracted during profiling (the
  /// distance-independent component of positioning time).
  sim::SimTime rotation() const { return rotation_; }
  void set_rotation(sim::SimTime r) { rotation_ = r; }

  /// Peak transfer bandwidth (bytes/second) measured by streaming reads.
  double peak_bandwidth() const { return peak_bw_; }
  void set_peak_bandwidth(double bw) { peak_bw_ = bw; }

  /// Peak streaming-write bandwidth (bytes/second).
  double peak_write_bandwidth() const {
    return write_bw_ > 0 ? write_bw_ : peak_bw_;
  }
  void set_peak_write_bandwidth(double bw) { write_bw_ = bw; }

  /// Measured extra positioning cost of discontinuous writes relative to
  /// reads (ms) — small requests pay settle + read-modify-write, large ones
  /// only settle.  The boundary mirrors the profiling request sizes.
  double write_surcharge_ms(sim::Bytes bytes) const {
    return bytes < sim::Bytes{32 * 1024} ? write_small_ms_ : write_large_ms_;
  }
  void set_write_surcharge(double small_ms, double large_ms) {
    write_small_ms_ = small_ms;
    write_large_ms_ = large_ms;
  }

  bool empty() const { return samples_.empty(); }
  const std::vector<Sample>& samples() const { return samples_; }

 private:
  std::vector<Sample> samples_;  // sorted by distance, monotone in ms
  sim::SimTime rotation_ = sim::SimTime::zero();
  double peak_bw_ = 0.0;
  double write_bw_ = 0.0;
  double write_small_ms_ = 0.0;
  double write_large_ms_ = 0.0;
};

/// Runs the profiling workload against `dev` inside `sim` (runs the
/// simulation to completion).  The device must be otherwise idle; the caller
/// supplies the simulator that owns it.
SeekProfile profile_device(sim::Simulator& sim, BlockDevice& dev);

}  // namespace ibridge::storage
