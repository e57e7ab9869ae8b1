// Sharded simulation core: conservative time-windowed barriers.
//
// A ShardGroup binds N sim::Simulator instances ("shards") into one logical
// simulation whose schedule is a pure function of the initial events.  The
// intended carve in this codebase (wired by cluster::Cluster): shard 0 owns
// the client/MPI ranks, the metadata server, and all client-side NICs; shard
// 1+i owns data server i's HDD/SSD/scheduler/cache event stream.  The network
// layer is the only cross-shard boundary, which is what makes conservative
// lookahead available: no message crosses shards faster than the minimum
// wire latency.
//
// Execution model (classic conservative windowing, specialized for a
// fixed-topology star):
//
//   W      = lookahead = minimum cross-shard delivery latency (> 0)
//   loop:
//     M    = min over shards of next pending event time
//     end  = M + W
//     each shard in turn drains its local events with time < `end`, reading
//       and writing only its own state;
//     barrier: buffered cross-shard posts are merged and scheduled.
//
// The calling thread drains every shard.  The partitioning exists for what
// it guarantees, not for parallelism: a shard's state changes only in its
// own events, and everything that crosses shards does so at a barrier in a
// fixed order.  One thread suffices: a window holds a few events and about
// a microsecond of host work, less than one thread handoff costs (see
// docs/PERF.md).
//
// Why this is safe: a cross-shard post made at local time t arrives at
// t + W.  During the window, t >= M, so every arrival lands at
// t + W >= M + W = end — never inside the window being drained; post()
// throws std::logic_error for a post that would.  Posts are buffered in
// per-source-shard FIFO outboxes and merged at the barrier in (arrival time,
// source shard, send order) order — realized as a sort by (arrival time,
// position) over the outboxes concatenated in shard order — then scheduled
// on the target shard, which assigns fresh local sequence numbers in exactly
// that order.  The drain order inside each shard is its own (when, seq) heap
// order, so the entire schedule is a pure function of the initial events:
// within a window no shard can observe another, so the order in which the
// shards are drained does not matter either.
//
// The window boundary is half-open: an event exactly at `end` belongs to
// the next window (Simulator::drain_window uses a strict bound).  A
// lookahead of zero would admit same-instant cross-shard cycles, so the
// constructor rejects it.
//
// Adaptive lookahead (set_adaptive_window) widens windows past the minimum
// `M + W` when other shards are idle or far in the future.  Window ends are
// *static per-shard bounds* computed at each barrier:
//
//   E_d = clamp( min over s != d of (T_s + W),  M + W,  M + A_max )
//
// where T_s is shard s's next pending event time and A_max is the adaptive
// cap.  Safety: cross-shard posts are delivered only at barriers, so during
// a window shard s's emissions are triggered solely by its own local events,
// all at t >= T_s; every post from s therefore arrives at >= T_s + W >= E_d
// for every d != s.  If every other shard is empty it cannot post at all, so
// E_d may stretch to M + A_max.  The bounds are a pure function of the T_s
// values, so the schedule stays deterministic.  Wider windows do change how
// many posts meet at one barrier merge, so an adaptive run's same-tick
// tie-breaks (and digests) may differ from a non-adaptive run of the same
// model — the adaptive cap is part of the configuration.
//
// Shard *groups* (cluster::Cluster maps many data servers onto one shard)
// need no support here beyond what post()/Hop already provide: shards are
// anonymous event streams, and grouping only changes how many of them exist.
//
// Driver-phase use (setup/teardown code between run_all calls) runs with no
// window active; post() then delivers directly onto the target shard's
// queue, still deterministically.
#pragma once

#include <coroutine>
#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "sim/inline_event.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace ibridge::sim {

class ShardGroup {
 public:
  /// `shards` logical shards (>= 1), all drained on the calling thread.
  /// `lookahead` must be positive — throws std::invalid_argument otherwise.
  ShardGroup(int shards, SimTime lookahead);

  ShardGroup(const ShardGroup&) = delete;
  ShardGroup& operator=(const ShardGroup&) = delete;

  int shards() const { return static_cast<int>(sims_.size()); }
  SimTime lookahead() const { return lookahead_; }

  /// Enable adaptive lookahead with windows capped at `max_window` past the
  /// global minimum (see the header comment for the per-shard bound and its
  /// safety argument).  Zero disables (the default); otherwise `max_window`
  /// must be >= lookahead() — throws std::invalid_argument if not.  Driver
  /// phase only.
  void set_adaptive_window(SimTime max_window);
  SimTime adaptive_window() const { return adaptive_; }

  /// Install a hook invoked at every barrier, passing the horizon time T:
  /// every event strictly before T has executed on every shard and none at
  /// or after T has, so the hook may read cross-shard state coherently.  T
  /// is a pure function of the schedule, which keeps anything derived from
  /// it (e.g. the cluster metrics sampler) deterministic.  Pass nullptr to
  /// uninstall.  Driver phase only.
  void set_barrier_hook(std::function<void(SimTime)> hook);

  Simulator& shard(int i) { return sims_[static_cast<std::size_t>(i)]; }
  const Simulator& shard(int i) const {
    return sims_[static_cast<std::size_t>(i)];
  }

  /// Cross-shard send: run `fn` on `to`'s shard at absolute time `when`.
  /// `from` must be the shard the caller is currently executing on.  Inside
  /// a window the post is buffered in `from`'s outbox and merged at the
  /// barrier; `when` must respect the lookahead (when >= from.now() +
  /// lookahead) — throws std::logic_error otherwise.  Outside a window it
  /// is scheduled directly (clamped to `to`'s clock, which driver-phase code
  /// may not have advanced).
  void post(Simulator& from, Simulator& to, SimTime when, InlineEvent fn);

  /// Awaitable that moves the running coroutine from `from`'s shard to
  /// `to`'s shard, arriving `lookahead` later (a no-op when already there).
  /// This is how driver coroutines spawned on shard 0 reach a data server's
  /// shard before touching its state or scheduling on its queue.
  struct Hop {
    ShardGroup* group;
    Simulator* from;
    Simulator* to;
    bool await_ready() const noexcept { return from == to; }
    void await_suspend(std::coroutine_handle<> h) {
      group->post(*from, *to, from->now() + group->lookahead_,
                  InlineEvent([h] { h.resume(); }));
    }
    void await_resume() const noexcept {}
  };
  Hop hop(Simulator& from, Simulator& to) { return Hop{this, &from, &to}; }

  /// Run windows until every shard's queue drains, then advance all shard
  /// clocks to the global maximum (so driver-phase code sees one time).
  void run_all();

  /// Run windows until no pending event is <= `deadline`, then advance all
  /// shard clocks to `deadline`.  Mirrors Simulator::run_until.
  void run_all_until(SimTime deadline);

  /// Run windows until `done()` returns true (checked at each barrier — the
  /// only points where cross-shard state is coherent) or the group drains.
  /// Returns true iff the predicate was satisfied.
  bool run_all_while_pending(const std::function<bool()>& done);

  /// Group-wide totals.
  std::uint64_t events_executed() const;
  bool all_empty() const;
  std::size_t total_pending() const;

  /// Barrier statistics.
  std::uint64_t windows_run() const { return windows_; }
  std::uint64_t posts_delivered() const { return posts_; }

 private:
  struct PostRec {
    SimTime when;
    std::uint32_t dst;
    std::uint32_t pos;  ///< index in the barrier's concatenated outboxes
    InlineEvent fn;
  };

  /// Earliest pending event across shards (SimTime::max() when drained).
  SimTime next_time() const;
  /// Compute per-shard window ends into `ends_` for a window starting at
  /// global minimum `m`, each clamped to `cap`.
  void place_windows(SimTime m, SimTime cap);
  /// Drain every shard's events strictly before its `ends_` bound, shard
  /// by shard.
  void run_window();
  /// Barrier merge: move buffered posts onto their target shards in
  /// (when, src shard, send order) order.
  void deliver();
  /// Advance every shard clock that is behind `t` (queues must have no
  /// event before `t`).
  void sync_clocks(SimTime t);

  std::deque<Simulator> sims_;  // deque: stable addresses, non-movable elems
  SimTime lookahead_;
  SimTime adaptive_ = SimTime::zero();  ///< max window width; zero = off
  std::vector<SimTime> ends_;  ///< per-shard window ends for this window
  std::function<void(SimTime)> barrier_hook_;

  std::vector<std::vector<PostRec>> outbox_;  ///< per-source-shard FIFOs
  std::vector<PostRec> scratch_;              ///< barrier merge buffer

  bool running_ = false;  ///< a window is being drained
  std::uint64_t windows_ = 0;
  std::uint64_t posts_ = 0;
};

}  // namespace ibridge::sim
