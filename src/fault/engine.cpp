#include "fault/engine.hpp"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/cache.hpp"
#include "core/observer.hpp"
#include "pvfs/server.hpp"
#include "storage/ssd.hpp"

namespace ibridge::fault {

/// One-shot write-back cutter: fires on the first flush batch that reaches
/// the scheduled phase, then stands down (drain() retries until dirty data
/// is gone, so a persistent gate would spin forever).
class FaultEngine::CrashGate final : public core::WritebackGate {
 public:
  explicit CrashGate(std::string phase) : phase_(std::move(phase)) {}

  bool cut(const char* phase) override {
    if (fired_ || phase_ != phase) return false;
    fired_ = true;
    return true;
  }
  bool fired() const { return fired_; }

 private:
  std::string phase_;
  bool fired_ = false;
};

FaultEngine::FaultEngine(cluster::Cluster& cluster, FaultSchedule schedule)
    : cluster_(cluster),
      schedule_(std::move(schedule)),
      actors_(cluster.sim()) {
  normalize(schedule_);
  const int n = cluster_.server_count();
  models_.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    const GcSpec* gc = nullptr;
    for (const GcSpec& g : schedule_.gc) {
      if (g.server < 0 || g.server == i) {
        gc = &g;
        break;
      }
    }
    const ReadVarSpec* rv = nullptr;
    for (const ReadVarSpec& r : schedule_.readvar) {
      if (r.server < 0 || r.server == i) {
        rv = &r;
        break;
      }
    }
    if (gc == nullptr && rv == nullptr) continue;
    // Independent per-server stream derived from the schedule seed, so
    // adding a server does not shift any other server's draw sequence.
    std::uint64_t st = schedule_.seed ^
                       (0x9e3779b97f4a7c15ULL *
                        static_cast<std::uint64_t>(i + 1));
    models_[static_cast<std::size_t>(i)] =
        std::make_unique<SsdFaultModel>(gc, rv, sim::splitmix64(st));
  }
}

FaultEngine::~FaultEngine() {
  // Uninstall everything we planted: clusters are shared across cases, and
  // the next case expects healthy hardware.  (This runs before actors_ is
  // destroyed, so gates owned by still-suspended actor frames are detached
  // while they are alive.)
  for (int i = 0; i < cluster_.server_count(); ++i) {
    pvfs::DataServer& s = cluster_.server(i);
    if (storage::SsdModel* ssd = s.ssd_model()) ssd->set_fault_hook(nullptr);
    if (core::IBridgeCache* c = s.cache()) c->set_writeback_gate(nullptr);
    s.set_offline(false);
  }
}

void FaultEngine::set_trace(obs::TraceSession* session) {
  // Sharded actors run on their servers' shards, whose clocks advance
  // independently inside a window; a TraceSession stamps spans with one
  // clock, so tracing an engine requires the classic core.
  if (session != nullptr && cluster_.shard_group() != nullptr) {
    throw std::logic_error(
        "FaultEngine::set_trace: tracing requires the classic core "
        "(shards = 0)");
  }
  trace_ = session;
  trace_track_ =
      session != nullptr ? session->track("fault", "engine") : obs::kNoTrack;
}

void FaultEngine::start() {
  if (started_) return;
  started_ = true;
  for (int i = 0; i < cluster_.server_count(); ++i) {
    SsdFaultModel* m = models_[static_cast<std::size_t>(i)].get();
    if (m == nullptr) continue;
    // Disk-only servers have no SSD to degrade; the spec is a no-op there.
    if (storage::SsdModel* ssd = cluster_.server(i).ssd_model()) {
      ssd->set_fault_hook(m);
    }
  }
  const bool sharded = cluster_.shard_group() != nullptr;
  for (const CrashSpec& c : schedule_.crashes) {
    if (c.server < 0 || c.server >= cluster_.server_count()) continue;
    ActorLane* lane = &shared_;
    if (sharded) {
      lanes_.emplace_back();
      lane = &lanes_.back();
    }
    actors_.spawn(crash_actor(c, lane));
  }
}

sim::Task<> FaultEngine::crash_actor(CrashSpec spec, ActorLane* lane) {
  pvfs::DataServer& server = cluster_.server(spec.server);
  core::IBridgeCache* cache = server.cache();
  sim::ShardGroup* group = cluster_.shard_group();
  // Arm the timer on shard 0 (where the actor is spawned), then move to the
  // crashed server's shard: everything below touches its cache/device state
  // and schedules on its queue.
  co_await sim::Delay{cluster_.sim(), spec.at};
  if (group != nullptr) co_await group->hop(cluster_.sim(), server.sim());
  sim::Simulator& sim = server.sim();

  const obs::SpanId span =
      trace_ != nullptr ? trace_->begin(trace_track_, "fault.crash", "fault")
                        : 0;
  if (span != 0) {
    trace_->arg(span, "server", static_cast<std::int64_t>(spec.server));
    trace_->arg(span, "phase", spec.phase);
  }

  // -- crash: cut write-back, take the server off the network ------------
  ++lane->stats.crashes;
  lane->digest.update_i64(sim.now().ns());
  CrashGate gate(spec.phase);
  if (cache != nullptr) {
    cache->set_writeback_gate(&gate);
    cache->stop();
  }
  server.set_offline(true);

  // Quiesce: requests already past the entry gate finish, background work
  // runs out (a flush batch in flight cuts at the gated phase boundary).
  while (server.inflight() > 0 ||
         (cache != nullptr && !cache->background_idle())) {
    co_await sim::Delay{sim, sim::SimTime::micros(50)};
  }

  // Snapshot the durable state at the crash instant: the mapping-table
  // image (the paper keeps it replayable — think NVRAM or a metadata
  // journal on the SSD) and the dirty-position bitmap that the degraded
  // drain will work off.
  std::string image;
  if (cache != nullptr) {
    std::ostringstream os;
    cache->table().save(os);
    image = os.str();
  }
  DirtyBitmap dirty(cache != nullptr ? cache->log().capacity()
                                     : sim::Bytes{4096});
  if (cache != nullptr) {
    for (core::EntryId id : cache->table().all_entries()) {
      const core::CacheEntry& e = cache->table().get(id);
      if (e.dirty) dirty.mark(e.log_off, e.length);
    }
  }
  lane->digest.update_i64(dirty.set_count());
  lane->digest.update_u64(image.size());

  // -- outage ------------------------------------------------------------
  co_await sim::Delay{sim, spec.outage};

  // -- restart: replay the table, rebuild the log, resume service --------
  if (cache != nullptr) {
    std::istringstream is(image);
    if (!cache->recover(is)) {
      if (!lane->failure.empty()) lane->failure += "; ";
      lane->failure += "srv" + std::to_string(spec.server) +
                       ": mapping-table replay failed";
    }
    cache->set_writeback_gate(nullptr);
    cache->start();
  }
  server.set_offline(false);
  ++lane->stats.recoveries;
  lane->digest.update_i64(sim.now().ns());

  // -- degraded mode: trickle the recovered dirty backlog home -----------
  while (cache != nullptr && dirty.any()) {
    co_await sim::Delay{sim, spec.drain_interval};
    co_await cache->flush_dirty(sim::Bytes{spec.drain_budget});
    ++lane->stats.degraded_flushes;
    // Positions still dirty now; intersecting clears every pre-crash
    // position whose entry has since been flushed, evicted, or trimmed.
    DirtyBitmap still(cache->log().capacity(), dirty.granule());
    for (core::EntryId id : cache->table().all_entries()) {
      const core::CacheEntry& e = cache->table().get(id);
      if (e.dirty) still.mark(e.log_off, e.length);
    }
    dirty.intersect(still);
  }
  lane->digest.update_i64(sim.now().ns());
  // Return to shard 0 so TaskGroup completion bookkeeping (all_finished)
  // is mutated only on the driver shard.
  if (group != nullptr) co_await group->hop(sim, cluster_.sim());
  if (span != 0) trace_->end(span);
}

std::uint64_t FaultEngine::digest() const {
  FaultDigest d;
  d.update_u64(schedule_digest(schedule_));
  d.update_u64(shared_.digest.value());
  // Spawn order, so the fold is a pure function of the schedule.
  for (const ActorLane& lane : lanes_) d.update_u64(lane.digest.value());
  for (const auto& m : models_) {
    d.update_u64(m != nullptr ? m->digest() : 0);
  }
  return d.value();
}

const std::string& FaultEngine::failure() const {
  failure_joined_ = shared_.failure;
  for (const ActorLane& lane : lanes_) {
    if (lane.failure.empty()) continue;
    if (!failure_joined_.empty()) failure_joined_ += "; ";
    failure_joined_ += lane.failure;
  }
  return failure_joined_;
}

FaultEngine::Stats FaultEngine::stats() const {
  Stats s = shared_.stats;
  for (const ActorLane& lane : lanes_) {
    s.crashes += lane.stats.crashes;
    s.recoveries += lane.stats.recoveries;
    s.degraded_flushes += lane.stats.degraded_flushes;
  }
  for (const auto& m : models_) {
    if (m != nullptr) {
      s.gc_pauses += m->gc_pauses();
      s.slow_reads += m->slow_reads();
    }
  }
  return s;
}

}  // namespace ibridge::fault
