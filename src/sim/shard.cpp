#include "sim/shard.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace ibridge::sim {

ShardGroup::ShardGroup(int shards, SimTime lookahead) : lookahead_(lookahead) {
  if (shards < 1) {
    throw std::invalid_argument("ShardGroup: shards must be >= 1");
  }
  if (lookahead <= SimTime::zero()) {
    // A zero-latency cross-shard edge would let a message land inside the
    // window that sent it; the conservative argument needs W > 0.
    throw std::invalid_argument("ShardGroup: lookahead must be positive");
  }
  outbox_.resize(static_cast<std::size_t>(shards));
  ends_.resize(static_cast<std::size_t>(shards), SimTime::zero());
  for (int i = 0; i < shards; ++i) {
    Simulator& s = sims_.emplace_back();
    s.group_ = this;
    s.shard_id_ = static_cast<std::uint32_t>(i);
  }
}

void ShardGroup::post(Simulator& from, Simulator& to, SimTime when,
                      InlineEvent fn) {
  assert(from.group_ == this && to.group_ == this);
  if (running_) {
    // Delivered at the barrier, such a post would land in the target
    // shard's past.
    if (when < from.now() + lookahead_) {
      throw std::logic_error(
          "ShardGroup::post: cross-shard post inside the lookahead horizon");
    }
    outbox_[from.shard_id_].push_back(
        PostRec{when, to.shard_id_, 0, std::move(fn)});
    return;
  }
  // Driver phase: deliver directly.  Shard clocks are synchronized after
  // run_all/run_all_until, but clamp defensively.
  to.schedule_at(when < to.now() ? to.now() : when, std::move(fn));
}

SimTime ShardGroup::next_time() const {
  SimTime m = SimTime::max();
  for (const Simulator& s : sims_) {
    const SimTime t = s.next_event_time();
    if (t < m) m = t;
  }
  return m;
}

void ShardGroup::set_adaptive_window(SimTime max_window) {
  assert(!running_ && "set_adaptive_window is driver-phase only");
  if (max_window == SimTime::zero()) {
    adaptive_ = SimTime::zero();
    return;
  }
  if (max_window < lookahead_) {
    throw std::invalid_argument(
        "ShardGroup: adaptive window must be >= lookahead");
  }
  adaptive_ = max_window;
}

void ShardGroup::set_barrier_hook(std::function<void(SimTime)> hook) {
  assert(!running_ && "set_barrier_hook is driver-phase only");
  barrier_hook_ = std::move(hook);
}

void ShardGroup::place_windows(SimTime m, SimTime cap) {
  const std::size_t n = sims_.size();
  const SimTime base = m + lookahead_;
  if (adaptive_ == SimTime::zero()) {
    const SimTime e = base < cap ? base : cap;
    for (std::size_t s = 0; s < n; ++s) ends_[s] = e;
    return;
  }
  // Two smallest next-event times over all shards: shard s's bound depends
  // on the minimum over the *other* shards, which is min2 when s itself is
  // the argmin and min1 otherwise.  O(shards), and a pure function of the
  // shards' next-event times.
  SimTime t1 = SimTime::max();
  SimTime t2 = SimTime::max();
  std::size_t arg1 = n;
  for (std::size_t s = 0; s < n; ++s) {
    const SimTime t = sims_[s].next_event_time();
    if (t < t1) {
      t2 = t1;
      t1 = t;
      arg1 = s;
    } else if (t < t2) {
      t2 = t;
    }
  }
  const SimTime wide = m + adaptive_;
  for (std::size_t s = 0; s < n; ++s) {
    const SimTime other = s == arg1 ? t2 : t1;
    SimTime e = wide;
    if (other != SimTime::max() && other + lookahead_ < e) {
      e = other + lookahead_;
    }
    if (e < base) e = base;  // never narrower than the classic window
    ends_[s] = e < cap ? e : cap;
  }
}

void ShardGroup::run_window() {
  // running_ makes posts buffer into outboxes and merge at the barrier, so
  // no shard observes another inside a window.
  running_ = true;
  for (std::size_t i = 0; i < sims_.size(); ++i) {
    sims_[i].drain_window(ends_[i]);
  }
  running_ = false;
}

void ShardGroup::deliver() {
  scratch_.clear();
  for (std::vector<PostRec>& box : outbox_) {
    for (PostRec& r : box) {
      r.pos = static_cast<std::uint32_t>(scratch_.size());
      scratch_.push_back(std::move(r));
    }
    box.clear();
  }
  if (scratch_.empty()) return;
  // Sorting by (arrival time, position in the source-shard-ordered
  // concatenation) realizes the (when, src shard, send order) merge; the
  // target shard then assigns fresh (monotone) sequence numbers in exactly
  // this order, fixing the same-tick cross-shard tie-break.  std::sort
  // takes no temporary buffer (std::stable_sort does), so a warm barrier
  // never allocates.
  std::sort(scratch_.begin(), scratch_.end(),
            [](const PostRec& a, const PostRec& b) {
              return a.when != b.when ? a.when < b.when : a.pos < b.pos;
            });
  for (PostRec& r : scratch_) {
    Simulator& dst = sims_[r.dst];
    assert(r.when >= dst.now() && "post arrived inside a drained window");
    dst.schedule_at(r.when, std::move(r.fn));
    ++posts_;
  }
  scratch_.clear();
}

void ShardGroup::sync_clocks(SimTime t) {
  for (Simulator& s : sims_) s.advance_to(t);
}

void ShardGroup::run_all() {
  for (;;) {
    const SimTime m = next_time();
    if (m == SimTime::max()) break;
    // At this point every event strictly before `m` has executed on every
    // shard and none after it has: the coherent horizon for the hook.
    if (barrier_hook_) barrier_hook_(m);
    place_windows(m, SimTime::max());
    run_window();
    deliver();
    ++windows_;
  }
  SimTime latest = SimTime::zero();
  for (const Simulator& s : sims_) {
    if (s.now() > latest) latest = s.now();
  }
  sync_clocks(latest);
}

void ShardGroup::run_all_until(SimTime deadline) {
  // Inclusive bound: Simulator::run_until executes events at exactly
  // `deadline`, so the strict window bound must sit one tick past it.
  const SimTime stop = deadline == SimTime::max()
                           ? deadline
                           : deadline + SimTime::nanos(1);
  for (;;) {
    const SimTime m = next_time();
    if (m > deadline) break;
    if (barrier_hook_) barrier_hook_(m);
    place_windows(m, stop);
    run_window();
    deliver();
    ++windows_;
  }
  sync_clocks(deadline);
}

bool ShardGroup::run_all_while_pending(const std::function<bool()>& done) {
  if (done()) return true;
  for (;;) {
    const SimTime m = next_time();
    if (m == SimTime::max()) {
      SimTime latest = SimTime::zero();
      for (const Simulator& s : sims_) {
        if (s.now() > latest) latest = s.now();
      }
      sync_clocks(latest);
      return done();
    }
    if (barrier_hook_) barrier_hook_(m);
    place_windows(m, SimTime::max());
    run_window();
    deliver();
    ++windows_;
    if (done()) return true;
  }
}

std::uint64_t ShardGroup::events_executed() const {
  std::uint64_t total = 0;
  for (const Simulator& s : sims_) total += s.executed_;
  return total;
}

bool ShardGroup::all_empty() const {
  for (const Simulator& s : sims_) {
    if (!s.keys_.empty()) return false;
  }
  return true;
}

std::size_t ShardGroup::total_pending() const {
  std::size_t total = 0;
  for (const Simulator& s : sims_) total += s.keys_.size();
  return total;
}

// ---- Simulator group-delegation bodies (ShardGroup is incomplete in
// simulator.hpp, so these live here) ----

void Simulator::group_run() { group_->run_all(); }
void Simulator::group_run_until(SimTime deadline) {
  group_->run_all_until(deadline);
}
bool Simulator::group_run_while_pending(const std::function<bool()>& done) {
  return group_->run_all_while_pending(done);
}
std::uint64_t Simulator::group_events_executed() const {
  return group_->events_executed();
}
bool Simulator::group_empty() const { return group_->all_empty(); }
std::size_t Simulator::group_pending() const {
  return group_->total_pending();
}

}  // namespace ibridge::sim
