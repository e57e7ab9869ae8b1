// Mechanical hard-disk service-time model.
//
// Service time of a dispatched (merged) request:
//
//   T = position(dir, seek_distance) + transfer(dir, bytes)
//
// where position() is zero for a sequential continuation (the request starts
// where the previous one ended) and otherwise
//
//   position = D_to_T(distance) + R
//
// with D_to_T the classical two-regime seek curve (square-root for short
// seeks, linear for long ones; Ruemmler & Wilkes) and R the average
// rotational delay (half a revolution).  transfer() uses the per-direction
// platter rate.  This is exactly the structure the paper's Equation (1)
// assumes, which lets iBridge's ServiceTimeModel estimate the disk well after
// offline profiling.
//
// Dispatch order and merging are delegated to an IoScheduler (CfqScheduler
// by default).  A one-shot anticipation window emulates CFQ/AS idling: if
// the best queued request requires a long seek, the device briefly waits
// for a nearer request to arrive before committing.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>

#include "sim/simulator.hpp"
#include "storage/block.hpp"
#include "storage/scheduler.hpp"

namespace ibridge::storage {

/// Tunable characteristics of the modelled disk.
struct HddParams {
  std::int64_t capacity_bytes = 1'000LL * 1000 * 1000 * 1000;  // 1 TB

  // Media transfer rates (bytes/second).
  double seq_read_bw = 85e6;   // Table II: 85 MB/s
  double seq_write_bw = 80e6;  // Table II: 80 MB/s

  // Seek curve: D_to_T(d) = a + b*sqrt(d) for d < boundary, else c + e*d,
  // with d in sectors.  Defaults give ~0.25 ms track-to-track and ~8 ms
  // full-stroke seeks on the 1 TB geometry.
  double seek_a_ms = 0.20;
  double seek_b_ms = 2.4e-3;     // * sqrt(sectors)
  std::int64_t seek_boundary = 4'000'000;  // ~2 GB in sectors
  double seek_c_ms = 4.0;
  double seek_e_ms = 2.05e-9;    // * sectors

  // Effective rotational delay on a discontinuous access.  7200 RPM is
  // 8.33 ms/rev (4.17 ms average miss); NCQ's rotational-position-aware
  // ordering roughly halves the realized penalty, and the paper's testbed
  // ran with NCQ enabled.
  double rotation_ms = 2.2;

  // Extra positioning penalty for non-sequential writes (settle +
  // write-verify margin).
  double write_settle_ms = 0.1;
  // Additional penalty for *small* discontinuous writes (read-modify-write
  // and cache-flush behaviour); drives the random-write weakness of
  // Table II (5 vs 15 MB/s) and the larger unaligned-write degradation the
  // paper reports for the stock system.
  std::int64_t small_write_sectors = 64;  // < 32 KB
  double small_write_penalty_ms = 3.0;

  // Per-dispatch controller overhead.
  double overhead_us = 50.0;

  // Requests landing within this many sectors of the head are treated as
  // near-sequential: no full seek, only a short settle.  Writes get a wider
  // window: the on-drive write cache absorbs skip-sequential writes (e.g.
  // iBridge's sorted write-back runs with ~64 KB gaps) and commits them in
  // one pass.
  std::int64_t near_sectors = 64;        // 32 KB (reads)
  std::int64_t write_near_sectors = 256; // 128 KB (writes)
  double near_settle_ms = 0.8;

  // Anticipation (CFQ-style idling): after a dispatch, briefly hold the
  // disk for the same stream's next synchronous request instead of seeking
  // away.  0 disables.  `anticipate_writes` extends idling to write
  // streams — PVFS2's Trove I/O is synchronous at the server, so its write
  // sub-requests behave like sync queues to CFQ.
  double anticipation_ms = 1.2;
  bool anticipate_writes = true;

  // Rotational re-synchronization: when a dispatch *continues* a sequential
  // stream but the device sat idle in between (the synchronous client had
  // not yet issued the next request), the target sector has rotated past
  // and the head must wait for it to come around again.  Charged when the
  // idle gap exceeds `idle_gap_us`.  This is what capped the paper's
  // testbed at ~20 MB/s per server for gap-ridden synchronous streams
  // despite an 85 MB/s platter rate.
  double idle_resync_ms = 2.6;
  double idle_gap_us = 100.0;

  std::int64_t capacity_sectors() const {
    return capacity_bytes / kSectorBytes;
  }
};

class HddModel final : public BlockDevice {
 public:
  HddModel(sim::Simulator& sim, HddParams params,
           std::unique_ptr<IoScheduler> sched);

  /// Convenience: CFQ scheduler (the paper's data-server configuration).
  HddModel(sim::Simulator& sim, HddParams params);

  void submit(BlockRequest req,
              sim::Completion<BlockCompletion>* done = nullptr) override;

  bool busy() const override { return state_ != State::kIdle; }
  std::size_t queue_depth() const override { return sched_->depth(); }
  std::int64_t capacity_sectors() const override {
    return params_.capacity_sectors();
  }

  const HddParams& params() const { return params_; }
  std::int64_t head_lbn() const { return head_; }

  /// The model's own seek curve (ground truth the profiler tries to learn).
  sim::SimTime seek_time(std::int64_t distance_sectors) const;

  /// Full service time the model would charge for a request at `lbn` given
  /// the current head position.  `after_idle` adds the rotational re-sync
  /// cost for stream continuations following an idle gap.  Exposed for
  /// tests and the Table II bench.
  sim::SimTime service_time(IoDirection dir, std::int64_t lbn,
                            std::int64_t sectors,
                            bool after_idle = false) const;

 private:
  // kPlugged models block-layer plugging: a dispatch decision scheduled for
  // the end of the current tick, so requests submitted together can merge
  // in the scheduler queue before the device commits to one.
  enum class State { kIdle, kPlugged, kAnticipating, kServing };

  void maybe_start();
  void unplug();
  void dispatch();
  void complete(sim::SimTime service);

  sim::Simulator& sim_;
  HddParams params_;
  std::unique_ptr<IoScheduler> sched_;
  // The disk serves one dispatch at a time (the state machine below), so
  // the in-flight batch lives here and is recycled — members capacity and
  // all — instead of being heap-shipped through the completion closure.
  DispatchBatch inflight_;
  State state_ = State::kIdle;
  std::int64_t head_ = 0;
  int last_tag_ = -1;              // stream served by the last dispatch
  IoDirection last_dir_ = IoDirection::kRead;
  sim::SimTime last_completion_ = SimTimeNegOne();
  std::uint64_t antic_epoch_ = 0;  // invalidates stale anticipation timers

  static sim::SimTime SimTimeNegOne() {
    return sim::SimTime::zero() - sim::SimTime::nanos(1);
  }
};

}  // namespace ibridge::storage
