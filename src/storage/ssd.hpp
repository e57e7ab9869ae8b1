// Solid-state-drive service-time model.
//
// SSD service time has no mechanical component; the model charges a
// per-operation overhead that depends on direction and on whether the request
// continues the device's last access in that direction (flash translation
// and program costs make discontinuous writes markedly slower — the 140 vs
// 30 MB/s gap in the paper's Table II that iBridge's log-structured cache
// file exploits), plus transfer time at the interface rate.
//
// The SSD serves requests FIFO (the paper configures the Noop scheduler for
// its SSDs) with an internal parallelism of `channels` concurrent operations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "storage/block.hpp"
#include "storage/scheduler.hpp"

namespace ibridge::storage {

struct SsdParams {
  std::int64_t capacity_bytes = 120LL * 1000 * 1000 * 1000;  // 120 GB

  // Interface transfer rates (bytes/second), Table II sequential numbers.
  double seq_read_bw = 160e6;
  double seq_write_bw = 140e6;

  // Per-operation overhead (microseconds) when the request does NOT continue
  // the previous access in the same direction.  Calibrated against Table II:
  //   4 KB random read  @ 60 MB/s  -> ~68 us/op, transfer 25 us -> ~43 us
  //   4 KB random write @ 30 MB/s  -> ~136 us/op, transfer 29 us -> ~107 us
  double random_read_overhead_us = 43.0;
  double random_write_overhead_us = 107.0;

  // Small residual overhead for sequential continuations.
  double seq_overhead_us = 4.0;

  // Number of operations the device can service concurrently.
  int channels = 1;

  std::int64_t capacity_sectors() const {
    return capacity_bytes / kSectorBytes;
  }
};

/// Fault-injection attachment point for the SSD.  A hook installed on an
/// SsdModel is consulted once per dispatch and may add extra service latency
/// (garbage-collection pauses, per-read variability).  Only src/fault/ — the
/// deterministic, seeded fault engine — installs hooks (enforced by
/// ibridge-lint's ssd-fault-hook rule); with no hook the device timing is
/// byte-identical to a build without this class.
class SsdFaultHook {
 public:
  virtual ~SsdFaultHook() = default;

  /// Extra service latency for a dispatch starting at `now` whose healthy
  /// service time is `base_service`.  Must be non-negative and a pure
  /// function of the hook's own (seeded) state plus the arguments.
  virtual sim::SimTime dispatch_delay(IoDirection dir, std::int64_t lbn,
                                      std::int64_t sectors, sim::SimTime now,
                                      sim::SimTime base_service) = 0;
};

class SsdModel final : public BlockDevice {
 public:
  SsdModel(sim::Simulator& sim, SsdParams params,
           std::unique_ptr<IoScheduler> sched);

  /// Convenience: Noop (FIFO + merge) scheduler, as in the paper's setup.
  SsdModel(sim::Simulator& sim, SsdParams params);

  void submit(BlockRequest req,
              sim::Completion<BlockCompletion>* done = nullptr) override;

  /// Install a fault hook (nullptr to detach).  Same zero-cost-when-null
  /// contract as the observer/trace hooks elsewhere in the simulator.
  void set_fault_hook(SsdFaultHook* hook) { fault_hook_ = hook; }

  bool busy() const override { return in_flight_ > 0 || !sched_->empty(); }
  std::size_t queue_depth() const override { return sched_->depth(); }
  std::int64_t capacity_sectors() const override {
    return params_.capacity_sectors();
  }

  const SsdParams& params() const { return params_; }

  /// Service time for a request given the device's current stream state.
  sim::SimTime service_time(IoDirection dir, std::int64_t lbn,
                            std::int64_t sectors) const;

 private:
  void maybe_start();
  void complete(int slot, sim::SimTime service);

  sim::Simulator& sim_;
  SsdParams params_;
  std::unique_ptr<IoScheduler> sched_;
  // One in-flight batch per busy channel.  Slots (and their members
  // capacity) are recycled through free_slots_, so steady-state dispatch
  // never allocates and the completion closure is just (this, slot, time).
  std::vector<DispatchBatch> slots_;
  std::vector<int> free_slots_;
  int in_flight_ = 0;
  // Expected next LBN per direction for sequential-continuation detection.
  std::int64_t next_read_lbn_ = -1;
  std::int64_t next_write_lbn_ = -1;
  SsdFaultHook* fault_hook_ = nullptr;
};

}  // namespace ibridge::storage
