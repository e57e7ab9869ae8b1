// Device-level fault models.
//
// SsdFaultModel implements storage::SsdFaultHook for one server's SSD: a
// churn-triggered garbage-collection pause model (every N bytes of write
// traffic stall the device for a fixed pause — the unsynchronized-GC
// straggler effect) layered with seeded per-read latency variability.  All
// state is derived from an explicit seed, and every injected delay is folded
// into a sim::Digest, so "same seed ⇒ identical pause trace" is a one-value
// comparison.
//
// DirtyBitmap tracks which positions of the SSD log held dirty data at a
// crash — the write-back journal's map of what degraded-mode draining still
// owes the disk.
#pragma once

#include <cstdint>
#include <vector>

#include "fault/schedule.hpp"
#include "sim/digest.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "sim/units.hpp"
#include "storage/block.hpp"
#include "storage/ssd.hpp"

namespace ibridge::fault {

class SsdFaultModel final : public storage::SsdFaultHook {
 public:
  /// Either spec may be null (that aspect disabled); the specs' `server`
  /// fields are ignored here — the engine resolves placement.
  SsdFaultModel(const GcSpec* gc, const ReadVarSpec* readvar,
                std::uint64_t seed);

  sim::SimTime dispatch_delay(storage::IoDirection dir, std::int64_t lbn,
                              std::int64_t sectors, sim::SimTime now,
                              sim::SimTime base_service) override;

  std::uint64_t gc_pauses() const { return gc_pauses_; }
  sim::SimTime gc_pause_time() const { return gc_pause_time_; }
  std::uint64_t slow_reads() const { return slow_reads_; }
  /// Digest over every (time, extra-delay) pair injected so far.
  std::uint64_t digest() const { return digest_.value(); }

 private:
  bool gc_enabled_ = false;
  GcSpec gc_;
  bool readvar_enabled_ = false;
  ReadVarSpec readvar_;
  sim::Rng rng_;
  std::int64_t churn_accum_ = 0;
  /// The device is stalled by GC until this instant (pauses queue up).
  sim::SimTime pause_until_;
  std::uint64_t gc_pauses_ = 0;
  sim::SimTime gc_pause_time_;
  std::uint64_t slow_reads_ = 0;
  sim::Digest digest_;
};

/// Fixed-granule bitmap over the SSD log's byte range.  Positions are
/// granule-sized tiles; a range marks/clears every tile it touches.
class DirtyBitmap {
 public:
  explicit DirtyBitmap(sim::Bytes capacity, sim::Bytes granule = sim::Bytes{4096});

  void mark(sim::Offset off, sim::Bytes len) { apply(off, len, true); }
  void clear(sim::Offset off, sim::Bytes len) { apply(off, len, false); }
  /// Drop every bit not also set in `other` (same capacity and granule).
  void intersect(const DirtyBitmap& other);

  bool any() const;
  std::int64_t set_count() const;
  bool test(std::int64_t tile) const;
  std::int64_t tile_count() const { return tiles_; }
  sim::Bytes granule() const { return granule_; }

 private:
  void apply(sim::Offset off, sim::Bytes len, bool value);

  sim::Bytes granule_;
  std::int64_t tiles_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace ibridge::fault
