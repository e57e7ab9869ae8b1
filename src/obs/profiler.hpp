// Sim-core profiler: where do a run's events — and its simulated and host
// time — actually go?
//
// SimProfiler observes every event a Simulator executes through the
// sim::StepHook of one of its lanes (below).  Subsystems mark the running
// event with a category ("client", "server", "cache", "disk", "ssd")
// through the same null-guarded-pointer pattern as TraceSession; the first
// mark during an event wins, so device-completion events are attributed to
// the device model even when a coroutine resumes on top of them.  Per event
// the profiler attributes:
//
//   * model time — the simulated-clock advance the event consumed (the gap
//     from the previous event's timestamp), credited to the marked
//     category.  Summing over categories reconstructs the timeline, which
//     is how "the run spent 70% of simulated time in disk service" is read
//     directly off `prof.model_ms.*`.
//   * wall time — optional host steady_clock timing of the event callback
//     (enable_wall_timing), for finding which subsystem burns host CPU.
//     Wall numbers are host-dependent and never published into the
//     MetricsRegistry; tools and benches read them via accessors.
//
// It also tracks event-queue depth (mean/peak occupancy) and per-server
// heat counters (operations and bytes served), published as
// `sim.*`/`prof.*`/`srv<N>.prof.*` metrics — see docs/OBSERVABILITY.md.
//
// Determinism: both hook callbacks run inside Simulator::step(), which must
// not allocate (the bench allocation gates count it), so every container is
// pre-sized during wiring
// (category()/set_server_count() allocate and must happen before the run).
// The hooks neither allocate nor touch the event queue, so an attached
// profiler keeps the simulated timeline byte-identical to an unprofiled
// run.
//
// Lanes: the profiler attributes through one ProfilerLane per simulator —
// a StepHook owning its own attribution state and counters.  Gap time is a
// per-clock quantity: the shards of a sim::ShardGroup advance their clocks
// independently inside a window, so one hook across shards would measure
// gaps between unrelated clocks.  Cluster::set_profiler creates one lane for
// the classic core and one per shard on the sharded core, and installs lane
// k on simulator k.  mark() routes through the active-lane pointer (set by
// each lane's on_event_begin), so subsystem code is oblivious to sharding.
// The accessors and publish() fan the lanes back in; every merged value is
// a sum/max over per-simulator counters.  See docs/OBSERVABILITY.md.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace ibridge::obs {

class MetricsRegistry;
class ProfilerLane;

class SimProfiler {
 public:
  /// Category 0 is pre-registered: events nothing marked (queue plumbing,
  /// coroutine resumptions, daemon ticks).
  static constexpr int kOther = 0;

  explicit SimProfiler(bool enable_wall_timing = false)
      : wall_(enable_wall_timing) {
    names_.push_back("other");
  }

  /// Intern a category name (a string literal) and size its counters.
  /// Pre-run only — allocates.  Re-interning a name returns the same id.
  int category(const char* name);

  /// Size the per-server heat tables.  Pre-run only — allocates.
  void set_server_count(std::size_t n) {
    heat_ops_.assign(n, 0);
    heat_bytes_.assign(n, 0);
  }

  /// Attribute the currently running event to `cat`.  First mark per event
  /// wins.  Hot path: no allocation, single predictable branch when unset.
  /// Routes to the lane of the simulator executing the event (defined after
  /// ProfilerLane below).
  void mark(int cat);

  /// Create one lane per simulator the run drains.  Call after every
  /// category() interning and before the run — lanes size their counters to
  /// the categories known here (category() also back-fills existing lanes).
  void set_lane_count(std::size_t n);
  std::size_t lane_count() const { return lanes_.size(); }
  /// The StepHook to install on simulator k.
  sim::StepHook* lane_hook(std::size_t k);

  /// Record one served operation of `bytes` on `server`.  Hot path.
  void heat(std::size_t server, std::int64_t bytes) {
    if (server < heat_ops_.size()) {
      ++heat_ops_[server];
      heat_bytes_[server] += bytes;
    }
  }

  /// Write `sim.*`, `prof.*`, and `srv<N>.prof.*` rows into the registry.
  /// Model-derived values only — wall times stay out of the registry (they
  /// are host noise; read them via wall_ns()).
  void publish(MetricsRegistry& reg) const;

  // Accessors (tools, benches, tests).  All fan in the lanes, so callers
  // see one merged view whether the run was sharded or not.
  std::size_t category_count() const { return names_.size(); }
  const char* category_name(int cat) const {
    return names_[static_cast<std::size_t>(cat)];
  }
  std::uint64_t events(int cat) const;
  std::uint64_t events_total() const {
    std::uint64_t n = 0;
    for (std::size_t c = 0; c < names_.size(); ++c) {
      n += events(static_cast<int>(c));
    }
    return n;
  }
  std::int64_t model_ns(int cat) const;
  std::int64_t wall_ns(int cat) const;
  bool wall_timing_enabled() const { return wall_; }
  double queue_depth_mean() const;
  std::size_t queue_depth_peak() const;
  /// Final queue occupancy: the sum of each lane's last-seen depth.
  std::size_t queue_depth_last() const;
  std::size_t server_count() const { return heat_ops_.size(); }
  std::uint64_t heat_ops(std::size_t server) const {
    return heat_ops_[server];
  }
  std::int64_t heat_bytes(std::size_t server) const {
    return heat_bytes_[server];
  }

 private:
  friend class ProfilerLane;

  bool wall_;
  std::vector<const char*> names_;  ///< literals; index = category id
  // Heat tables are per profiler, not per lane: a server's counters are
  // keyed by server index already, so there is nothing to fan in.
  std::vector<std::uint64_t> heat_ops_;
  std::vector<std::int64_t> heat_bytes_;

  std::deque<ProfilerLane> lanes_;  ///< stable addresses; one per simulator
  ProfilerLane* active_ = nullptr;  ///< lane of the executing event
};

/// One simulator's step hook: gap-time attribution against that
/// simulator's clock, with its own counters.  Merged back into the parent's
/// accessors after the run.
class ProfilerLane final : public sim::StepHook {
 public:
  explicit ProfilerLane(SimProfiler* parent)
      : parent_(parent),
        event_counts_(parent->names_.size(), 0),
        model_ns_(parent->names_.size(), 0),
        wall_ns_(parent->names_.size(), 0) {}

  void mark(int cat) {
    if (!cat_marked_) {
      current_cat_ = cat;
      cat_marked_ = true;
    }
  }

  // sim::StepHook — runs inside Simulator::step(), which must not allocate.
  void on_event_begin(sim::SimTime now) override {
    parent_->active_ = this;
    gap_ns_ = (now - last_now_).ns();
    last_now_ = now;
    current_cat_ = SimProfiler::kOther;
    cat_marked_ = false;
    if (parent_->wall_) wall_t0_ = std::chrono::steady_clock::now();
  }

  void on_event_end(sim::SimTime /*now*/, std::size_t pending) override {
    const auto cat = static_cast<std::size_t>(current_cat_);
    ++event_counts_[cat];
    model_ns_[cat] += gap_ns_;
    depth_sum_ += pending;
    ++depth_samples_;
    if (pending > depth_peak_) depth_peak_ = pending;
    last_depth_ = pending;
    if (parent_->wall_) {
      wall_ns_[cat] += std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - wall_t0_)
                           .count();
    }
  }

 private:
  friend class SimProfiler;

  SimProfiler* parent_;
  std::vector<std::uint64_t> event_counts_;
  std::vector<std::int64_t> model_ns_;
  std::vector<std::int64_t> wall_ns_;

  sim::SimTime last_now_ = sim::SimTime::zero();
  std::int64_t gap_ns_ = 0;
  int current_cat_ = SimProfiler::kOther;
  bool cat_marked_ = false;
  std::chrono::steady_clock::time_point wall_t0_{};

  std::uint64_t depth_sum_ = 0;
  std::uint64_t depth_samples_ = 0;
  std::size_t depth_peak_ = 0;
  std::size_t last_depth_ = 0;
};

inline void SimProfiler::mark(int cat) {
  if (active_ != nullptr) active_->mark(cat);
}

inline void SimProfiler::set_lane_count(std::size_t n) {
  active_ = nullptr;
  lanes_.clear();
  for (std::size_t i = 0; i < n; ++i) lanes_.emplace_back(this);
}

inline sim::StepHook* SimProfiler::lane_hook(std::size_t k) {
  return &lanes_[k];
}

inline std::uint64_t SimProfiler::events(int cat) const {
  const auto c = static_cast<std::size_t>(cat);
  std::uint64_t n = 0;
  for (const ProfilerLane& lane : lanes_) n += lane.event_counts_[c];
  return n;
}

inline std::int64_t SimProfiler::model_ns(int cat) const {
  const auto c = static_cast<std::size_t>(cat);
  std::int64_t n = 0;
  for (const ProfilerLane& lane : lanes_) n += lane.model_ns_[c];
  return n;
}

inline std::int64_t SimProfiler::wall_ns(int cat) const {
  const auto c = static_cast<std::size_t>(cat);
  std::int64_t n = 0;
  for (const ProfilerLane& lane : lanes_) n += lane.wall_ns_[c];
  return n;
}

inline double SimProfiler::queue_depth_mean() const {
  std::uint64_t sum = 0;
  std::uint64_t samples = 0;
  for (const ProfilerLane& lane : lanes_) {
    sum += lane.depth_sum_;
    samples += lane.depth_samples_;
  }
  return samples != 0
             ? static_cast<double>(sum) / static_cast<double>(samples)
             : 0.0;
}

inline std::size_t SimProfiler::queue_depth_peak() const {
  std::size_t peak = 0;
  for (const ProfilerLane& lane : lanes_) {
    if (lane.depth_peak_ > peak) peak = lane.depth_peak_;
  }
  return peak;
}

inline std::size_t SimProfiler::queue_depth_last() const {
  std::size_t last = 0;
  for (const ProfilerLane& lane : lanes_) last += lane.last_depth_;
  return last;
}

}  // namespace ibridge::obs
