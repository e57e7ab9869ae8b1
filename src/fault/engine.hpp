// FaultEngine — executes a FaultSchedule against a running cluster.
//
// On start() the engine installs the per-server SSD fault models (GC
// pauses, read variability) and spawns one crash actor per CrashSpec.  A
// crash actor takes its server off the network mid-write-back (cutting the
// flush batch at the scheduled phase via core::WritebackGate), waits for
// quiescence, snapshots the mapping table and a dirty-position bitmap,
// rides out the outage, replays the table through IBridgeCache::recover(),
// and then drains the recovered dirty data in degraded mode — a bounded
// trickle per interval — until every pre-crash dirty byte is home.
//
// Everything the engine injects is folded into digest(), so two runs with
// the same seed and schedule can be compared with one 64-bit value; crash
// and recovery show up as "fault.crash" spans when a TraceSession is
// attached.  The destructor uninstalls every hook it planted, so clusters
// shared across cases come back healthy.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "fault/model.hpp"
#include "fault/schedule.hpp"
#include "obs/trace.hpp"
#include "sim/digest.hpp"
#include "sim/sync.hpp"

namespace ibridge::fault {

class FaultEngine {
 public:
  /// The engine references (never owns) the cluster; schedule times are
  /// relative to the start() call.
  FaultEngine(cluster::Cluster& cluster, FaultSchedule schedule);
  ~FaultEngine();
  FaultEngine(const FaultEngine&) = delete;
  FaultEngine& operator=(const FaultEngine&) = delete;

  /// Attach a TraceSession (nullptr to detach); call before start().
  /// Classic core only: throws std::logic_error for a non-null session on a
  /// sharded cluster.
  void set_trace(obs::TraceSession* session);

  /// Install hooks and spawn the crash actors.  Idempotent.
  void start();

  /// True once start() was called and every crash actor has finished
  /// (crashed, recovered, and drained its degraded backlog).
  bool done() const { return started_ && actors_.all_finished(); }

  /// Digest over the schedule plus every injected event (crash instants,
  /// recovery instants, GC pauses, slowed reads) — byte-identical for
  /// same-seed same-schedule runs.
  std::uint64_t digest() const;

  /// Non-empty when a recovery replay failed ("; "-joined).  Driver phase
  /// only (joins the per-actor lanes into a cached string).
  const std::string& failure() const;

  struct Stats {
    std::uint64_t crashes = 0;
    std::uint64_t recoveries = 0;
    std::uint64_t degraded_flushes = 0;
    std::uint64_t gc_pauses = 0;
    std::uint64_t slow_reads = 0;
  };
  Stats stats() const;

  const FaultSchedule& schedule() const { return schedule_; }

 private:
  class CrashGate;

  /// Where an actor folds its injected events.  On the classic core every
  /// actor shares one lane — the counters/digest interleave in event-time
  /// order, byte-identical to the engine's original single-digest history.
  /// On a sharded cluster actors run on their servers' shards, whose clocks
  /// interleave differently, so each gets its own lane (deque: stable
  /// addresses), folded in spawn order by digest()/stats()/failure() —
  /// which makes the merged values a pure function of the schedule.
  struct ActorLane {
    Stats stats;
    sim::Digest digest;
    std::string failure;
  };

  sim::Task<> crash_actor(CrashSpec spec, ActorLane* lane);

  cluster::Cluster& cluster_;
  FaultSchedule schedule_;
  /// One model per server index (null where no gc/readvar spec applies).
  std::vector<std::unique_ptr<SsdFaultModel>> models_;
  obs::TraceSession* trace_ = nullptr;
  obs::TrackId trace_track_ = obs::kNoTrack;
  bool started_ = false;
  ActorLane shared_;              ///< the classic core's single lane
  std::deque<ActorLane> lanes_;   ///< sharded: one per actor, spawn order
  mutable std::string failure_joined_;
  sim::TaskGroup actors_;
};

}  // namespace ibridge::fault
