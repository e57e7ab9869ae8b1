// blktrace-equivalent: the size distribution of block-level requests
// dispatched to a device.
//
// The paper uses Linux blktrace to obtain the distributions of block-request
// sizes (Figures 2(c-e) and 5), measured in 512-byte sectors.  The simulated
// devices call BlockTraceRecorder::record() for each request they dispatch;
// the recorder stays off until set_enabled(true) (Cluster::enable_disk_trace),
// because the device itself already keeps its bytes and busy time.
#pragma once

#include <cstdint>

#include "stats/histogram.hpp"

namespace ibridge::stats {

inline constexpr std::int64_t kSectorBytes = 512;

enum class IoDirection : std::uint8_t { kRead, kWrite };

inline const char* to_string(IoDirection d) {
  return d == IoDirection::kRead ? "read" : "write";
}

/// Histogram of dispatched request sizes, in sectors.
class BlockTraceRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  void record(std::int64_t sectors) {
    if (enabled_) size_hist_.add(sectors);
  }

  /// Distribution of request sizes in sectors (Fig. 2(c-e), Fig. 5).
  const IntHistogram& size_histogram() const { return size_hist_; }
  std::uint64_t requests() const { return size_hist_.total(); }

  void clear() { size_hist_.clear(); }

 private:
  bool enabled_ = false;
  IntHistogram size_hist_;
};

}  // namespace ibridge::stats
