// Server-side disk service-time estimation — Equations (1) and (2).
//
// Each data server maintains a decayed average request service time T for
// its disk.  For the i-th request, the predicted cost of serving it on the
// disk is
//
//     sample_i = D_to_T(|lambda_i - lambda_{i-1}|) + R + Size_i / B
//
// where lambda is the LBN of the request's first block, R the average
// rotational delay, B the disk's peak bandwidth, and D_to_T the seek curve
// learned by offline profiling (storage::profile_device).  Serving on the
// disk updates T with decay (Eq. 1); serving on the SSD leaves T unchanged
// (Eq. 2).  The difference is the *return* of SSD redirection.
#pragma once

#include <cstdint>

#include "sim/time.hpp"
#include "sim/units.hpp"
#include "storage/profiler.hpp"

namespace ibridge::core {

using sim::Bytes;

class ServiceTimeModel {
 public:
  /// `old_weight` is the decay factor on the previous average (1/8 in the
  /// paper, after Linux anticipatory scheduling).
  ServiceTimeModel(storage::SeekProfile profile, double old_weight)
      : profile_(std::move(profile)), old_weight_(old_weight) {}

  /// Predicted disk service time (ms) for a request at `lbn` of `bytes`,
  /// given the location of the last disk-served request.  The profile is
  /// direction-aware: discontinuous writes carry the measured surcharge
  /// (Table II's random-write weakness) and use the write streaming rate.
  double predict_ms(std::int64_t lbn, Bytes bytes,
                    storage::IoDirection dir) const {
    const std::int64_t dist =
        last_lbn_ < 0 ? 0 : (lbn > last_lbn_ ? lbn - last_lbn_
                                             : last_lbn_ - lbn);
    const double seek_ms = profile_.seek_time(dist).to_millis();
    double pos_ms = dist == 0 ? 0.0 : seek_ms + profile_.rotation().to_millis();
    const bool is_write = dir == storage::IoDirection::kWrite;
    if (is_write && dist != 0) pos_ms += profile_.write_surcharge_ms(bytes);
    const double bw = is_write ? profile_.peak_write_bandwidth()
                               : profile_.peak_bandwidth();
    const double xfer_ms =
        bw > 0 ? static_cast<double>(bytes.count()) / bw * 1e3 : 0.0;
    return pos_ms + xfer_ms;
  }

  /// What T would become if this request were served at the disk (Eq. 1).
  double t_if_disk(std::int64_t lbn, Bytes bytes,
                   storage::IoDirection dir) const {
    return old_weight_ * t_ +
           (1.0 - old_weight_) * predict_ms(lbn, bytes, dir);
  }

  /// What T would become if served at the SSD (Eq. 2): unchanged.
  double t_if_ssd() const { return t_; }

  /// Commit: the request was dispatched to the disk.
  void observe_disk(std::int64_t lbn, Bytes bytes, storage::IoDirection dir,
                    std::int64_t end_lbn) {
    t_ = t_if_disk(lbn, bytes, dir);
    last_lbn_ = end_lbn;
  }

  /// Current decayed average service time T (ms).
  double t() const { return t_; }

  const storage::SeekProfile& profile() const { return profile_; }

 private:
  storage::SeekProfile profile_;
  double old_weight_;
  double t_ = 0.0;
  std::int64_t last_lbn_ = -1;
};

}  // namespace ibridge::core
