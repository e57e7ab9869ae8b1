// blktrace-equivalent: records block-level requests dispatched to a device.
//
// The paper uses Linux blktrace to obtain the distributions of block-request
// sizes (Figures 2(c-e) and 5), measured in 512-byte sectors.  The simulated
// devices call BlockTraceRecorder::record() for each request they dispatch.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "sim/units.hpp"
#include "stats/histogram.hpp"

namespace ibridge::stats {

inline constexpr std::int64_t kSectorBytes = 512;

enum class IoDirection : std::uint8_t { kRead, kWrite };

inline const char* to_string(IoDirection d) {
  return d == IoDirection::kRead ? "read" : "write";
}

/// One dispatched block request, as blktrace would log it.
struct BlockTraceEntry {
  sim::SimTime dispatch_time;
  IoDirection dir;
  std::int64_t lbn;         // first 512 B sector
  std::int64_t sectors;     // length in 512 B sectors
  sim::SimTime service;     // modelled device service time
};

/// Accumulates dispatched requests and derives size distributions.
class BlockTraceRecorder {
 public:
  void set_enabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_; }

  /// Keep the full entry log (needed only for detailed inspection; the
  /// histograms are always maintained).
  void set_keep_entries(bool on) { keep_entries_ = on; }

  void record(sim::SimTime when, IoDirection dir, std::int64_t lbn,
              sim::Bytes bytes, sim::SimTime service) {
    if (!enabled_) return;
    const std::int64_t sectors =
        (bytes.count() + kSectorBytes - 1) / kSectorBytes;
    size_hist_.add(sectors);
    (dir == IoDirection::kRead ? read_bytes_ : write_bytes_) += bytes;
    service_ms_.add(service.to_millis());
    if (keep_entries_)
      entries_.push_back({when, dir, lbn, sectors, service});
  }

  /// Distribution of request sizes in sectors (Fig. 2(c-e), Fig. 5).
  const IntHistogram& size_histogram() const { return size_hist_; }
  const Summary& service_ms() const { return service_ms_; }
  const std::vector<BlockTraceEntry>& entries() const { return entries_; }
  std::uint64_t requests() const { return size_hist_.total(); }
  sim::Bytes read_bytes() const { return read_bytes_; }
  sim::Bytes write_bytes() const { return write_bytes_; }

  void clear() {
    size_hist_.clear();
    service_ms_ = {};
    entries_.clear();
    read_bytes_ = write_bytes_ = sim::Bytes::zero();
  }

 private:
  bool enabled_ = true;
  bool keep_entries_ = false;
  IntHistogram size_hist_;
  Summary service_ms_;
  std::vector<BlockTraceEntry> entries_;
  sim::Bytes read_bytes_;
  sim::Bytes write_bytes_;
};

}  // namespace ibridge::stats
