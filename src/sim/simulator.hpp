// The discrete-event simulation core.
//
// A Simulator owns a priority queue of (time, sequence, callback) events and a
// monotonically advancing clock.  Everything in the iBridge model — device
// service completions, network transfers, MPI ranks, server daemons — runs as
// events on one Simulator instance.  A standalone Simulator is
// single-threaded and fully deterministic: two events scheduled for the same
// tick fire in the order they were scheduled (FIFO by sequence number).
//
// Simulators can also be grouped into a sim::ShardGroup (sim/shard.hpp): each
// member owns one shard of a larger model (one data server's device/cache
// event stream) and drains its local queue inside deterministic time
// windows, exchanging cross-shard events only at the barriers between them.
// A grouped simulator's run()-family entry points transparently delegate to
// the group, so driver code written against `sim().run_while_pending(...)`
// works unchanged whether the cluster is sharded or not.
//
// Hot-path engineering (measured by bench/bench_simcore.cpp, design notes in
// docs/PERF.md):
//   - callbacks are sim::InlineEvent, not std::function — closures up to 48
//     bytes schedule without touching the allocator;
//   - the queue is a hand-rolled 4-ary min-heap on (when, seq).  A 4-ary
//     heap halves tree depth vs binary, so sift_down touches fewer cache
//     lines per pop while sibling scans stay within one or two lines;
//   - the heap is laid out SoA: a dense vector of 16-byte (when, seq) keys
//     that the sifts move, and a parallel vector of 4-byte slot indices.
//     The InlineEvent payloads live in a slot arena (LIFO free list) that
//     sifts never touch, so every heap move stays within two tightly packed
//     arrays instead of shuffling 32-byte padded AoS nodes;
//   - step_tick() dispatches every event of the current tick as one batch
//     (the sharded window loop's inner step): the ready slots are pulled
//     from the heap once, so same-tick bursts — deferred coroutine resumes,
//     barrier releases — skip interleaved sift_down/push churn;
//   - reserve() lets long-lived setups (pvfs::Client, cluster::Cluster)
//     pre-size the event vector and avoid regrowth mid-run.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/inline_event.hpp"
#include "sim/time.hpp"

namespace ibridge::sim {

class ShardGroup;

/// Observer of individual simulator steps (obs::ProfilerLane, one per
/// simulator an obs::SimProfiler observes).
/// Both callbacks run inside Simulator::step(), which bench_simcore and
/// bench_scale require to be allocation-free — implementations must not
/// allocate (pre-size any state up front).
class StepHook {
 public:
  virtual ~StepHook() = default;
  /// After the clock advanced to the event's time, before its callback.
  virtual void on_event_begin(SimTime now) = 0;
  /// After the event's callback ran; `pending` is the queue depth left.
  virtual void on_event_end(SimTime now, std::size_t pending) = 0;
};

class Simulator {
 public:
  using Callback = InlineEvent;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Shard index within the owning ShardGroup (0 for standalone sims).
  int shard_id() const { return static_cast<int>(shard_id_); }
  /// The owning ShardGroup, or nullptr for a standalone simulator.
  ShardGroup* group() const { return group_; }

  /// Pre-size the event heap for at least `n` concurrently pending events.
  /// Never shrinks.  Cheap to call from component constructors.
  void reserve(std::size_t n) {
    if (n > keys_.capacity()) {
      keys_.reserve(n);
      heap_slots_.reserve(n);
      slots_.reserve(n);
      free_.reserve(n);
      ready_.reserve(n);
    }
  }

  /// Schedule `fn` to run `delay` after the current time.
  void schedule(SimTime delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  /// Schedule `fn` at an absolute simulated time (>= now).
  void schedule_at(SimTime when, Callback fn) {
    assert(when >= now_ && "cannot schedule into the past");
    std::uint32_t slot;
    if (!free_.empty()) {
      slot = free_.back();
      free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    slots_[slot] = std::move(fn);
    keys_.push_back(make_key(when, next_seq_++));
    heap_slots_.push_back(slot);
    sift_up(keys_.size() - 1);
  }

  /// Schedule `fn` to run at the current time, after all callbacks already
  /// queued for this tick.  Used to break call chains (e.g. resuming a
  /// coroutine from inside another coroutine's await_suspend).
  void defer(Callback fn) { schedule_at(now_, std::move(fn)); }

  /// Run a single event.  Returns false when the queue is empty.
  bool step() {
    if (keys_.empty()) return false;
    now_ = key_time(keys_[0]);
    const std::uint32_t slot = pop_top();
    if (hook_ != nullptr) hook_->on_event_begin(now_);
    // Move the callable out before invoking: the callback is free to
    // schedule new events, which may reuse this slot immediately.
    Callback fn = std::move(slots_[slot]);
    free_.push_back(slot);
    fn();
    ++executed_;
    if (hook_ != nullptr) hook_->on_event_end(now_, keys_.size());
    return true;
  }

  /// Run every event of the next pending tick as one batch, in (when, seq)
  /// order.  Events a callback schedules for the same tick land *after* the
  /// batch (their sequence numbers are higher), so the execution order is
  /// byte-identical to repeated step() calls — the batch only skips the
  /// per-event sift_down/push interleaving.  Returns false when empty.
  bool step_tick() {
    if (keys_.empty()) return false;
    const SimTime t = key_time(keys_[0]);
    now_ = t;
    ready_.clear();
    do {
      ready_.push_back(pop_top());
    } while (!keys_.empty() && key_time(keys_[0]) == t);
    for (std::size_t i = 0; i < ready_.size(); ++i) {
      const std::uint32_t slot = ready_[i];
      if (hook_ != nullptr) hook_->on_event_begin(now_);
      Callback fn = std::move(slots_[slot]);
      free_.push_back(slot);
      fn();
      ++executed_;
      if (hook_ != nullptr) {
        hook_->on_event_end(now_, keys_.size() + (ready_.size() - i - 1));
      }
    }
    return true;
  }

  /// Attach a per-step observer (null detaches).  The hook runs inside the
  /// allocation-free step(); see StepHook.
  void set_step_hook(StepHook* hook) { hook_ = hook; }
  StepHook* step_hook() const { return hook_; }

  /// Run until the event queue drains.  Grouped simulators delegate to the
  /// ShardGroup, which drains every shard under windowed barriers.
  void run() {
    if (group_ != nullptr) {
      group_run();
      return;
    }
    while (step()) {
    }
  }

  /// Run until the event queue drains or the clock passes `deadline`.
  /// Events scheduled after the deadline remain queued.
  void run_until(SimTime deadline) {
    if (group_ != nullptr) {
      group_run_until(deadline);
      return;
    }
    while (!keys_.empty() && key_time(keys_[0]) <= deadline) step();
    if (now_ < deadline) now_ = deadline;
  }

  /// Run until `done` returns true or the queue drains.  Returns true iff
  /// the predicate was satisfied.  Standalone simulators check after every
  /// event; grouped simulators check at window barriers (the predicate must
  /// only read state written by event callbacks, which is exactly what the
  /// barrier synchronizes).
  bool run_while_pending(const std::function<bool()>& done) {
    if (group_ != nullptr) return group_run_while_pending(done);
    while (!done()) {
      if (!step()) return false;
    }
    return true;
  }

  /// Events executed.  For grouped simulators this is the group-wide total
  /// (the per-shard split is scheduling detail; the sum is shard-invariant).
  std::uint64_t events_executed() const {
    if (group_ != nullptr) return group_events_executed();
    return executed_;
  }
  bool empty() const {
    if (group_ != nullptr) return group_empty();
    return keys_.empty();
  }
  std::size_t pending() const {
    if (group_ != nullptr) return group_pending();
    return keys_.size();
  }

 private:
  friend class ShardGroup;

  /// (when, seq) packed into one unsigned 128-bit key: `when.ns() << 64 |
  /// seq`.  A single integer compare orders events by time with same-tick
  /// FIFO tie-break, and — unlike a two-field comparison — compiles to
  /// branchless cmp/cmov in the sift loops, whose child-scan branches are
  /// data-dependent and mispredict heavily on random keys.  Times are never
  /// negative here (the clock starts at zero and delays are non-negative,
  /// enforced by the schedule_at assert), so the int64->uint64 cast is
  /// order-preserving.
  using Key = unsigned __int128;

  static Key make_key(SimTime when, std::uint64_t seq) {
    return (static_cast<Key>(static_cast<std::uint64_t>(when.ns())) << 64) |
           seq;
  }
  static SimTime key_time(Key k) {
    return SimTime::nanos(static_cast<std::int64_t>(k >> 64));
  }

  /// Pop the minimum heap entry, returning its arena slot.  Precondition:
  /// the heap is non-empty.
  std::uint32_t pop_top() {
    const std::uint32_t slot = heap_slots_[0];
    if (keys_.size() > 1) {
      keys_[0] = keys_.back();
      heap_slots_[0] = heap_slots_.back();
      keys_.pop_back();
      heap_slots_.pop_back();
      sift_down(0);
    } else {
      keys_.pop_back();
      heap_slots_.pop_back();
    }
    return slot;
  }

  // 4-ary heap layout: children of i are 4i+1 .. 4i+4, parent is (i-1)/4.
  // Both sifts hole-shift — copy the displaced key/slot pair out once, shift
  // ancestors/descendants into the hole, and place it at the end — so each
  // level costs one pair copy instead of a three-copy swap.  The SoA split
  // keeps the sift loops inside the dense 16-byte key array; the 4-byte slot
  // array tags along with one extra store per level.

  void sift_up(std::size_t i) {
    const Key k = keys_[i];
    const std::uint32_t s = heap_slots_[i];
    while (i > 0) {
      const std::size_t parent = (i - 1) / 4;
      if (k >= keys_[parent]) break;
      keys_[i] = keys_[parent];
      heap_slots_[i] = heap_slots_[parent];
      i = parent;
    }
    keys_[i] = k;
    heap_slots_[i] = s;
  }

  void sift_down(std::size_t i) {
    const Key k = keys_[i];
    const std::uint32_t s = heap_slots_[i];
    const std::size_t n = keys_.size();
    for (;;) {
      const std::size_t first = 4 * i + 1;
      if (first >= n) break;
      std::size_t best = first;
      const std::size_t last = first + 4 < n ? first + 4 : n;
      for (std::size_t c = first + 1; c < last; ++c) {
        best = keys_[c] < keys_[best] ? c : best;  // cmov, no branch
      }
      if (keys_[best] >= k) break;
      keys_[i] = keys_[best];
      heap_slots_[i] = heap_slots_[best];
      i = best;
    }
    keys_[i] = k;
    heap_slots_[i] = s;
  }

  /// Next pending event time (SimTime::max() when empty) — the ShardGroup's
  /// window-placement probe.
  SimTime next_event_time() const {
    return keys_.empty() ? SimTime::max() : key_time(keys_[0]);
  }

  /// Drain every event strictly before `end` (batched per tick).  An event
  /// exactly at `end` belongs to the *next* window — the strict bound is
  /// what makes cross-shard arrivals (always >= the window end, by the
  /// lookahead argument in sim/shard.hpp) safe to deliver at the barrier.
  void drain_window(SimTime end) {
    while (!keys_.empty() && key_time(keys_[0]) < end) step_tick();
  }

  /// Advance the clock without running anything (window/deadline catch-up).
  void advance_to(SimTime t) {
    assert(keys_.empty() || key_time(keys_[0]) >= t);
    if (now_ < t) now_ = t;
  }

  // Group delegation bodies live in shard.cpp (ShardGroup is incomplete
  // here); they forward to the group's run_all family.
  void group_run();
  void group_run_until(SimTime deadline);
  bool group_run_while_pending(const std::function<bool()>& done);
  std::uint64_t group_events_executed() const;
  bool group_empty() const;
  std::size_t group_pending() const;

  std::vector<Key> keys_;                 ///< heap keys, SoA with heap_slots_
  std::vector<std::uint32_t> heap_slots_; ///< arena slot per heap entry
  std::vector<Callback> slots_;      ///< callables, addressed by heap_slots_
  std::vector<std::uint32_t> free_;  ///< LIFO free list of slot indices
  std::vector<std::uint32_t> ready_; ///< step_tick()'s same-tick batch
  SimTime now_ = SimTime::zero();
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  StepHook* hook_ = nullptr;
  ShardGroup* group_ = nullptr;  ///< set by ShardGroup on its members
  std::uint32_t shard_id_ = 0;
};

}  // namespace ibridge::sim
