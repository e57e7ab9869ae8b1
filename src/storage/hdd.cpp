#include "storage/hdd.hpp"

#include <cassert>
#include <cstdlib>
#include <utility>

namespace ibridge::storage {

HddModel::HddModel(sim::Simulator& sim, HddParams params,
                   std::unique_ptr<IoScheduler> sched)
    : sim_(sim), params_(params), sched_(std::move(sched)) {}

HddModel::HddModel(sim::Simulator& sim, HddParams params)
    : HddModel(sim, params, std::make_unique<CfqScheduler>()) {}

sim::SimTime HddModel::seek_time(std::int64_t d) const {
  if (d == 0) return sim::SimTime::zero();
  double ms;
  if (d < params_.seek_boundary) {
    ms = params_.seek_a_ms + params_.seek_b_ms * std::sqrt(static_cast<double>(d));
  } else {
    ms = params_.seek_c_ms + params_.seek_e_ms * static_cast<double>(d);
  }
  return sim::SimTime::from_seconds(ms / 1e3);
}

sim::SimTime HddModel::service_time(IoDirection dir, std::int64_t lbn,
                                    std::int64_t sectors,
                                    bool after_idle) const {
  const std::int64_t dist = std::llabs(lbn - head_);
  const std::int64_t near = dir == IoDirection::kWrite
                                ? params_.write_near_sectors
                                : params_.near_sectors;
  double pos_ms = 0.0;
  bool far = false;
  if (dist <= near) {
    if (after_idle) {
      // Stream continuation after an idle gap: the target sector has
      // rotated past; wait for it to come around.
      pos_ms = params_.idle_resync_ms;
    } else if (dist > 0) {
      pos_ms = params_.near_settle_ms;
    }
    // else: back-to-back sequential streaming, free.
  } else {
    pos_ms = seek_time(dist).to_seconds() * 1e3 + params_.rotation_ms;
    far = true;
  }
  if (dist != 0 && dir == IoDirection::kWrite) {
    pos_ms += params_.write_settle_ms;
    if (far && sectors < params_.small_write_sectors) {
      pos_ms += params_.small_write_penalty_ms;
    }
  }

  const double bw =
      dir == IoDirection::kRead ? params_.seq_read_bw : params_.seq_write_bw;
  const double xfer_s = static_cast<double>(sectors * kSectorBytes) / bw;
  return sim::SimTime::from_seconds(pos_ms / 1e3 + xfer_s) +
         sim::SimTime::from_seconds(params_.overhead_us / 1e6);
}

void HddModel::submit(BlockRequest req,
                      sim::Completion<BlockCompletion>* done) {
  assert(req.sectors > 0);
  assert(req.lbn >= 0 && req.end() <= capacity_sectors());
  // CFQ-style anticipation: the disk idles after a dispatch waiting for the
  // same stream's next synchronous request; that arrival (or a near-head
  // one) ends the idling immediately.
  const bool wanted =
      req.tag == last_tag_ ||
      std::llabs(req.lbn - head_) <= params_.near_sectors;
  sched_->add({req, sim_.now(), done});
  if (state_ == State::kAnticipating && wanted) {
    ++antic_epoch_;  // invalidate the pending timer
    dispatch();
  } else {
    maybe_start();
  }
}

void HddModel::maybe_start() {
  if (state_ != State::kIdle) return;
  if (sched_->empty()) return;
  // Plug: decide at the end of the current tick so that requests submitted
  // together can merge in the queue first.
  state_ = State::kPlugged;
  sim_.defer([this] {
    if (state_ == State::kPlugged) {
      state_ = State::kIdle;
      unplug();
    }
  });
}

void HddModel::unplug() {
  if (state_ != State::kIdle) return;
  if (sched_->empty()) return;

  // If the best candidate needs a real seek, idle briefly in the hope that
  // the last stream continues near the head (models CFQ/AS idling for the
  // synchronous per-process streams the paper's workloads generate).  CFQ
  // only idles for synchronous (read) queues; buffered writes never
  // anticipate.
  const auto next = sched_->peek(head_);
  if (params_.anticipation_ms > 0 && next &&
      next->distance > params_.near_sectors && last_tag_ >= 0 &&
      next->tag != last_tag_ &&  // don't idle when the continuation is here
      (last_dir_ == IoDirection::kRead || params_.anticipate_writes)) {
    state_ = State::kAnticipating;
    const std::uint64_t epoch = ++antic_epoch_;
    sim_.schedule(sim::SimTime::from_seconds(params_.anticipation_ms / 1e3),
                  [this, epoch] {
                    if (state_ == State::kAnticipating && antic_epoch_ == epoch)
                      dispatch();
                  });
    return;
  }
  dispatch();
}

void HddModel::dispatch() {
  sched_->pop_next(head_, inflight_);
  if (inflight_.empty()) {
    state_ = State::kIdle;
    return;
  }
  state_ = State::kServing;
  last_tag_ = inflight_.members.front().req.tag;
  last_dir_ = inflight_.dir;

  const bool after_idle =
      last_completion_ >= sim::SimTime::zero() &&
      (sim_.now() - last_completion_) >
          sim::SimTime::from_seconds(params_.idle_gap_us / 1e6);
  const sim::SimTime service =
      service_time(inflight_.dir, inflight_.lbn, inflight_.sectors, after_idle);
  record_dispatch(sim_.now(), inflight_.dir, inflight_.lbn, inflight_.sectors,
                  service);

  // The batch stays in inflight_ (one dispatch at a time), so the closure
  // fits the inline event and steady-state dispatch never allocates.
  sim_.schedule(service, [this, service] { complete(service); });
}

void HddModel::complete(sim::SimTime service) {
  head_ = inflight_.end();
  last_completion_ = sim_.now();
  const sim::SimTime now = sim_.now();
  for (const PendingRequest& p : inflight_.members) {
    if (p.done != nullptr) {
      p.done->complete(sim_, {now, now - p.submitted, service});
    }
  }
  inflight_.reset();
  state_ = State::kIdle;
  maybe_start();
}

}  // namespace ibridge::storage
