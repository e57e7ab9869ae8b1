#include "storage/ssd.hpp"

#include <cassert>
#include <memory>
#include <utility>

namespace ibridge::storage {

SsdModel::SsdModel(sim::Simulator& sim, SsdParams params,
                   std::unique_ptr<IoScheduler> sched)
    : sim_(sim), params_(params), sched_(std::move(sched)) {}

SsdModel::SsdModel(sim::Simulator& sim, SsdParams params)
    : SsdModel(sim, params, std::make_unique<NoopScheduler>()) {}

sim::SimTime SsdModel::service_time(IoDirection dir, std::int64_t lbn,
                                    std::int64_t sectors) const {
  const bool is_read = dir == IoDirection::kRead;
  const std::int64_t expected = is_read ? next_read_lbn_ : next_write_lbn_;
  const bool sequential = lbn == expected;

  double overhead_us;
  if (sequential) {
    overhead_us = params_.seq_overhead_us;
  } else {
    overhead_us = is_read ? params_.random_read_overhead_us
                          : params_.random_write_overhead_us;
  }
  const double bw = is_read ? params_.seq_read_bw : params_.seq_write_bw;
  const double xfer_s = static_cast<double>(sectors * kSectorBytes) / bw;
  return sim::SimTime::from_seconds(overhead_us / 1e6 + xfer_s);
}

void SsdModel::submit(BlockRequest req,
                      sim::Completion<BlockCompletion>* done) {
  assert(req.sectors > 0);
  assert(req.lbn >= 0 && req.end() <= capacity_sectors());
  sched_->add({req, sim_.now(), done});
  maybe_start();
}

void SsdModel::maybe_start() {
  while (in_flight_ < params_.channels && !sched_->empty()) {
    int slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      slot = static_cast<int>(slots_.size());
      slots_.emplace_back();
      free_slots_.reserve(slots_.size());  // complete() pushes alloc-free
    }
    DispatchBatch& batch = slots_[static_cast<std::size_t>(slot)];
    sched_->pop_next(/*head_lbn=*/0, batch);
    assert(!batch.empty());

    sim::SimTime service = service_time(batch.dir, batch.lbn, batch.sectors);
    if (fault_hook_ != nullptr) {
      // Injected latency (GC pause, read variability) is part of the service
      // time proper: it shows up in busy-time accounting, dispatch records,
      // and trace spans exactly like a slow device would.
      service += fault_hook_->dispatch_delay(batch.dir, batch.lbn,
                                             batch.sectors, sim_.now(), service);
    }
    if (batch.dir == IoDirection::kRead) {
      next_read_lbn_ = batch.end();
    } else {
      next_write_lbn_ = batch.end();
    }
    record_dispatch(sim_.now(), batch.dir, batch.lbn, batch.sectors, service);

    ++in_flight_;
    sim_.schedule(service, [this, slot, service] { complete(slot, service); });
  }
}

void SsdModel::complete(int slot, sim::SimTime service) {
  DispatchBatch& batch = slots_[static_cast<std::size_t>(slot)];
  const sim::SimTime now = sim_.now();
  for (const PendingRequest& p : batch.members) {
    if (p.done != nullptr) {
      p.done->complete(sim_, {now, now - p.submitted, service});
    }
  }
  batch.reset();
  free_slots_.push_back(slot);
  --in_flight_;
  maybe_start();
}

}  // namespace ibridge::storage
