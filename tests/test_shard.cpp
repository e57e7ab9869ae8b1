// sim::ShardGroup — the conservative time-windowed sharded core.
//
// Covers the barrier scheduler's edge semantics (an event exactly at a
// window boundary belongs to the next window; same-tick cross-shard
// deliveries tie-break in (source shard, send order); a zero lookahead is
// rejected at construction; a post inside the lookahead throws) and the
// headline determinism property: the schedule a group executes is a pure
// function of the initial events, so two fresh groups seeded alike execute
// it identically.  A seeded fuzz variant (ctest -L fuzz) drives full
// SimCheck differential cases through the sharded cluster and asserts that
// each passes the oracle and repeats byte-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/differential.hpp"
#include "check/generator.hpp"
#include "fault/schedule.hpp"
#include "sim/rng.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace ibridge::sim {
namespace {

const SimTime kW = SimTime::micros(10);  // lookahead for the unit scenarios

TEST(ShardGroup, RejectsZeroLookaheadAndZeroShards) {
  // A zero lookahead would admit same-instant cross-shard cycles — the
  // window-safety proof needs W > 0 strictly.
  EXPECT_THROW(ShardGroup(2, SimTime::zero()), std::invalid_argument);
  EXPECT_THROW(ShardGroup(2, SimTime::nanos(-5)), std::invalid_argument);
  EXPECT_THROW(ShardGroup(0, kW), std::invalid_argument);
}

TEST(ShardGroup, StandaloneSimulatorHasNoGroup) {
  Simulator s;
  EXPECT_EQ(s.group(), nullptr);
  EXPECT_EQ(s.shard_id(), 0);
  ShardGroup g(2, kW);
  EXPECT_EQ(g.shard(1).group(), &g);
  EXPECT_EQ(g.shard(1).shard_id(), 1);
}

// An event scheduled exactly at a window's end must NOT run inside that
// window: the first window is [0, W), and a cross-shard arrival lands
// exactly at W — on the boundary.  A pre-scheduled local event at W has a
// lower sequence number than the barrier-delivered post, so it must run
// first; if the window bound were `<=` instead of `<`, the local event
// would instead run a whole window early, before the post even existed.
TEST(ShardGroup, EventExactlyAtWindowBoundaryRunsInNextWindow) {
  ShardGroup g(2, kW);
  std::vector<std::pair<int, std::int64_t>> order;  // (id, ns)

  // Shard 1's local event, pre-scheduled for exactly t = W.
  g.shard(1).schedule_at(kW, InlineEvent([&] {
    order.emplace_back(1, g.shard(1).now().ns());
  }));
  // Shard 0 at t = 0 posts to shard 1 arriving at the minimum t = W.
  g.shard(0).schedule_at(SimTime::zero(), InlineEvent([&] {
    order.emplace_back(0, g.shard(0).now().ns());
    g.post(g.shard(0), g.shard(1), g.shard(0).now() + kW, InlineEvent([&] {
      order.emplace_back(2, g.shard(1).now().ns());
    }));
  }));
  g.run_all();

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], std::make_pair(0, std::int64_t{0}));
  EXPECT_EQ(order[1], std::make_pair(1, kW.ns()));  // local first (lower seq)
  EXPECT_EQ(order[2], std::make_pair(2, kW.ns()));  // then the delivery
  EXPECT_EQ(g.posts_delivered(), 1u);
  EXPECT_GE(g.windows_run(), 2u);  // the boundary event needed window two
}

// Same-tick cross-shard deliveries tie-break in (source shard, send order):
// the barrier concatenates the per-source FIFOs in shard order and
// stable-sorts by arrival time only.
TEST(ShardGroup, SameTickDeliveriesMergeInSourceShardSendOrder) {
  ShardGroup g(3, kW);
  std::vector<int> order;  // filled on shard 0 only

  // Both source shards send two posts to shard 0, all arriving at 2W.
  // Shard 2 is armed *earlier* (t=0) than shard 1 (t=W/2) — arrival-time
  // and source-order must win over arming order.
  g.shard(2).schedule_at(SimTime::zero(), InlineEvent([&] {
    Simulator& self = g.shard(2);
    const SimTime at = SimTime::nanos(2 * kW.ns());
    g.post(self, g.shard(0), at, InlineEvent([&] { order.push_back(21); }));
    g.post(self, g.shard(0), at, InlineEvent([&] { order.push_back(22); }));
  }));
  g.shard(1).schedule_at(SimTime::nanos(kW.ns() / 2), InlineEvent([&] {
    Simulator& self = g.shard(1);
    const SimTime at = SimTime::nanos(2 * kW.ns());
    g.post(self, g.shard(0), at, InlineEvent([&] { order.push_back(11); }));
    g.post(self, g.shard(0), at, InlineEvent([&] { order.push_back(12); }));
  }));
  g.run_all();

  const std::vector<int> want{11, 12, 21, 22};
  EXPECT_EQ(order, want);
  EXPECT_EQ(g.posts_delivered(), 4u);
}

// Inside a window a post must arrive at least one lookahead after its
// sender's clock: delivered at the barrier, an earlier arrival would land in
// the target shard's past.  The check holds in every build type.  (Raised
// from a plain event callback: a throw inside a sim::Task terminates.)
TEST(ShardGroup, PostInsideLookaheadThrows) {
  ShardGroup g(2, kW);
  bool delivered = false;
  g.shard(0).schedule_at(SimTime::micros(1), InlineEvent([&] {
    Simulator& self = g.shard(0);
    g.post(self, g.shard(1), self.now() + kW - SimTime::nanos(1),
           InlineEvent([&] { delivered = true; }));
  }));
  EXPECT_THROW(g.run_all(), std::logic_error);
  EXPECT_FALSE(delivered);
}

// Driver-phase posts (no window running) deliver directly, clamped to the
// target clock, and still execute on the next run.
TEST(ShardGroup, DriverPhasePostDeliversDirectly) {
  ShardGroup g(2, kW);
  bool ran = false;
  g.post(g.shard(0), g.shard(1), SimTime::zero(),
         InlineEvent([&] { ran = true; }));
  g.run_all();
  EXPECT_TRUE(ran);
}

TEST(ShardGroup, RunAllUntilStopsAtDeadlineAndSyncsClocks) {
  ShardGroup g(3, kW);
  int ran = 0;
  const SimTime deadline = SimTime::micros(50);
  g.shard(1).schedule_at(SimTime::micros(20), InlineEvent([&] { ++ran; }));
  g.shard(2).schedule_at(SimTime::micros(50), InlineEvent([&] { ++ran; }));
  g.shard(2).schedule_at(SimTime::micros(51), InlineEvent([&] { ++ran; }));
  g.run_all_until(deadline);
  EXPECT_EQ(ran, 2);  // the 51us event stays queued (run_until is <=)
  EXPECT_EQ(g.total_pending(), 1u);
  for (int s = 0; s < g.shards(); ++s) {
    EXPECT_EQ(g.shard(s).now(), deadline) << "shard " << s;
  }
  g.run_all();
  EXPECT_EQ(ran, 3);
  EXPECT_TRUE(g.all_empty());
}

TEST(ShardGroup, RunWhilePendingChecksPredicateAtBarriers) {
  ShardGroup g(2, kW);
  bool flag = false;
  int after = 0;
  // Shard 1 sets the flag on shard 0 through a cross-shard post; the
  // predicate sees it at the next barrier.
  g.shard(1).schedule_at(SimTime::micros(5), InlineEvent([&] {
    g.post(g.shard(1), g.shard(0), g.shard(1).now() + kW,
           InlineEvent([&] { flag = true; }));
  }));
  g.shard(1).schedule_at(SimTime::millis(10), InlineEvent([&] { ++after; }));
  EXPECT_TRUE(g.shard(0).run_while_pending([&] { return flag; }));
  EXPECT_TRUE(flag);
  EXPECT_EQ(after, 0) << "far-future work must not run once satisfied";
  g.run_all();
  EXPECT_EQ(after, 1);
}

// The grouped Simulator's run()-family delegates to the group: driver code
// written against `sim()` works unchanged on a sharded cluster.
TEST(ShardGroup, GroupedSimulatorDelegatesRunFamily) {
  ShardGroup g(2, kW);
  int ran = 0;
  g.shard(1).schedule_at(SimTime::micros(3), InlineEvent([&] { ++ran; }));
  g.shard(0).run();  // drains the *group*, not just shard 0
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(g.shard(0).empty());
  EXPECT_EQ(g.shard(0).events_executed(), g.events_executed());
}

// hop() moves a coroutine between shards, arriving one lookahead later.
TEST(ShardGroup, HopMovesCoroutineAcrossShards) {
  ShardGroup g(2, kW);
  std::vector<std::int64_t> times;
  bool done = false;
  auto t = [](ShardGroup& gr, std::vector<std::int64_t>& ts,
              bool& flag) -> Task<> {
    Simulator& s0 = gr.shard(0);
    Simulator& s1 = gr.shard(1);
    co_await gr.hop(s0, s0);  // no-op: already there
    ts.push_back(s0.now().ns());
    co_await gr.hop(s0, s1);
    ts.push_back(s1.now().ns());
    co_await Delay{s1, SimTime::micros(7)};
    co_await gr.hop(s1, s0);
    ts.push_back(s0.now().ns());
    flag = true;
  }(g, times, done);
  t.start();
  g.shard(0).run_while_pending([&] { return done; });
  ASSERT_EQ(times.size(), 3u);
  EXPECT_EQ(times[0], 0);
  EXPECT_EQ(times[1], kW.ns());
  EXPECT_EQ(times[2], kW.ns() + SimTime::micros(7).ns() + kW.ns());
}

// ------------------------------------------------------------ determinism ----

/// A randomized ping-pong mesh: every shard runs `events` chained events,
/// each advancing a shard-local xorshift stream, recording into a
/// shard-local log, and occasionally posting a continuation to a random
/// other shard.  Returns the per-shard logs plus group totals.
struct MeshResult {
  std::vector<std::vector<std::uint64_t>> logs;
  std::uint64_t executed = 0;
  std::uint64_t windows = 0;
  std::uint64_t posts = 0;
  std::vector<std::int64_t> final_ns;
};

MeshResult run_mesh(int shards, std::uint64_t seed,
                    SimTime adaptive = SimTime::zero()) {
  ShardGroup g(shards, kW);
  if (adaptive != SimTime::zero()) g.set_adaptive_window(adaptive);
  MeshResult r;
  r.logs.resize(static_cast<std::size_t>(shards));
  // One RNG stream per shard, touched only by that shard's events: the
  // draw sequence is part of the schedule, so any reordering would corrupt
  // it and show up in the logs.
  std::vector<std::uint64_t> rng(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    std::uint64_t st = seed ^ static_cast<std::uint64_t>(s + 1);
    rng[static_cast<std::size_t>(s)] = splitmix64(st);
  }

  // Self-referential event chain: `chain` must outlive the run.
  struct Chain {
    ShardGroup* g;
    MeshResult* r;
    std::vector<std::uint64_t>* rng;
    int shards;
    void fire(int s, int depth) {
      Simulator& self = g->shard(s);
      std::uint64_t& x = (*rng)[static_cast<std::size_t>(s)];
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      r->logs[static_cast<std::size_t>(s)].push_back(
          x ^ static_cast<std::uint64_t>(self.now().ns()));
      if (depth <= 0) return;
      const int dst = static_cast<int>(x % static_cast<std::uint64_t>(shards));
      const SimTime gap = SimTime::nanos(
          static_cast<std::int64_t>(x % 7919) + 1);
      if (dst == s) {
        self.schedule(gap, InlineEvent([this, s, depth] {
          fire(s, depth - 1);
        }));
      } else {
        g->post(self, g->shard(dst), self.now() + g->lookahead() + gap,
                InlineEvent([this, dst, depth] { fire(dst, depth - 1); }));
      }
    }
  };
  Chain chain{&g, &r, &rng, shards};
  for (int s = 0; s < shards; ++s) {
    g.shard(s).schedule_at(SimTime::nanos(s + 1), InlineEvent([&chain, s] {
      chain.fire(s, 40);
    }));
  }
  g.run_all();

  r.executed = g.events_executed();
  r.windows = g.windows_run();
  r.posts = g.posts_delivered();
  for (int s = 0; s < shards; ++s) {
    r.final_ns.push_back(g.shard(s).now().ns());
  }
  return r;
}

/// Two fresh groups with the same seed must execute the same schedule; a
/// different seed must not (or the mesh would not exercise the schedule).
void expect_deterministic_mesh(std::uint64_t seed, SimTime adaptive) {
  const MeshResult a = run_mesh(/*shards=*/5, seed, adaptive);
  EXPECT_GT(a.posts, 0u) << "mesh never crossed a shard — weak scenario";
  const MeshResult b = run_mesh(5, seed, adaptive);
  EXPECT_EQ(b.logs, a.logs);
  EXPECT_EQ(b.executed, a.executed);
  EXPECT_EQ(b.windows, a.windows);
  EXPECT_EQ(b.posts, a.posts);
  EXPECT_EQ(b.final_ns, a.final_ns);
  EXPECT_NE(run_mesh(5, seed + 1, adaptive).logs, a.logs);
}

TEST(ShardGroup, ScheduleIsDeterministic) {
  expect_deterministic_mesh(0xabcdef, SimTime::zero());
}

// ---------------------------------------------------- adaptive lookahead ----

TEST(ShardGroup, AdaptiveWindowValidation) {
  ShardGroup g(2, kW);
  EXPECT_THROW(g.set_adaptive_window(SimTime::nanos(kW.ns() - 1)),
               std::invalid_argument);
  g.set_adaptive_window(kW);                    // == lookahead: allowed
  g.set_adaptive_window(SimTime::micros(500));  // wider: allowed
  EXPECT_EQ(g.adaptive_window(), SimTime::micros(500));
  g.set_adaptive_window(SimTime::zero());  // zero disables
  EXPECT_EQ(g.adaptive_window(), SimTime::zero());
}

// When other shards are quiescent far into the future, adaptive lookahead
// must widen the busy shard's window beyond the minimum W instead of
// stepping W at a time — the property that makes widely-spaced shard-group
// workloads affordable.  The executed schedule itself must not change.
TEST(ShardGroup, AdaptiveWindowWidensWindows) {
  auto run = [](SimTime adaptive) {
    ShardGroup g(2, kW);
    if (adaptive != SimTime::zero()) g.set_adaptive_window(adaptive);
    std::vector<std::int64_t> log;
    // Shard 0: a long chain of local events 1us apart; shard 1: one far
    // event.  No cross-shard traffic, so windows can legally widen to the
    // adaptive cap.
    struct Chain {
      Simulator* s;
      std::vector<std::int64_t>* log;
      void fire(int left) {
        log->push_back(s->now().ns());
        if (left > 0) {
          s->schedule(SimTime::micros(1),
                      InlineEvent([this, left] { fire(left - 1); }));
        }
      }
    };
    Chain chain{&g.shard(0), &log};
    g.shard(0).schedule_at(SimTime::zero(),
                           InlineEvent([&chain] { chain.fire(200); }));
    g.shard(1).schedule_at(SimTime::micros(400),
                           InlineEvent([&log, &g] {
                             log.push_back(-g.shard(1).now().ns());
                           }));
    g.run_all();
    return std::make_pair(log, g.windows_run());
  };

  const auto [base_log, base_windows] = run(SimTime::zero());
  const auto [wide_log, wide_windows] = run(SimTime::micros(100));
  EXPECT_EQ(wide_log, base_log) << "adaptive widening changed the schedule";
  // 200us of 1us-spaced events at W=10us needs >=20 windows without
  // adaptive; with a 100us cap the idle-peer bound lets each window span
  // up to 100us.
  EXPECT_GE(base_windows, 20u);
  EXPECT_LT(wide_windows * 4, base_windows)
      << "adaptive cap did not widen windows (wide=" << wide_windows
      << " base=" << base_windows << ")";
}

// Determinism holds with adaptive lookahead on: window placement is a pure
// function of the shards' next-event times, so the schedule (and even the
// window count) repeats exactly.
TEST(ShardGroup, AdaptiveScheduleIsDeterministic) {
  expect_deterministic_mesh(0x5eedf00d, SimTime::micros(80));
}

// Cross-shard posts keep the conservative bound honest under adaptive
// widening: a post arriving at exactly T+W must not be missed by a window
// that widened past it.
TEST(ShardGroup, AdaptiveWindowStillDeliversMinimumLatencyPosts) {
  ShardGroup g(2, kW);
  g.set_adaptive_window(SimTime::micros(200));
  std::vector<std::pair<int, std::int64_t>> order;
  g.shard(1).schedule_at(kW, InlineEvent([&] {
    order.emplace_back(1, g.shard(1).now().ns());
  }));
  g.shard(0).schedule_at(SimTime::zero(), InlineEvent([&] {
    order.emplace_back(0, g.shard(0).now().ns());
    g.post(g.shard(0), g.shard(1), g.shard(0).now() + kW, InlineEvent([&] {
      order.emplace_back(2, g.shard(1).now().ns());
    }));
  }));
  g.run_all();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], std::make_pair(0, std::int64_t{0}));
  EXPECT_EQ(order[1], std::make_pair(1, kW.ns()));
  EXPECT_EQ(order[2], std::make_pair(2, kW.ns()));
  EXPECT_EQ(g.posts_delivered(), 1u);
}

// The barrier hook fires between windows with the horizon m: every event
// strictly before m has executed, none at or after m has.
TEST(ShardGroup, BarrierHookObservesCoherentHorizon) {
  ShardGroup g(2, kW);
  std::int64_t executed_max[2] = {-1, -1};
  for (int s = 0; s < 2; ++s) {
    for (int k = 1; k <= 20; ++k) {
      g.shard(s).schedule_at(SimTime::micros(3 * k),
                             InlineEvent([&executed_max, s, k] {
                               executed_max[s] = SimTime::micros(3 * k).ns();
                             }));
    }
  }
  std::size_t calls = 0;
  std::int64_t last_horizon = -1;
  g.set_barrier_hook([&](SimTime horizon) {
    ++calls;
    // Horizons only move forward, and every executed event is < m: the
    // hook always observes a coherent cross-shard prefix of the schedule.
    EXPECT_GE(horizon.ns(), last_horizon);
    last_horizon = horizon.ns();
    for (int s = 0; s < 2; ++s) {
      EXPECT_LT(executed_max[s], horizon.ns());
    }
  });
  g.run_all();
  EXPECT_GT(calls, 0u);
  g.set_barrier_hook(nullptr);
}

}  // namespace
}  // namespace ibridge::sim

// ------------------------------------------------------- SimCheck fuzzing ----

namespace ibridge::check {
namespace {

int fuzz_iterations(int dflt) {
  if (const char* env = std::getenv("SIMCHECK_FUZZ_ITERS")) {
    const int n = std::atoi(env);
    if (n > 0) return n;
  }
  return dflt;
}

/// Digest tuple of one differential run — everything the simcheck tool
/// writes per seed, plus the fault digest when faulted.
struct CaseDigests {
  std::uint64_t payload, image, disk, ibridge, ssd, fault;
  bool operator==(const CaseDigests&) const = default;
};

CaseDigests digests_of(const FuzzCase& c) {
  const DiffReport d = run_differential(c);
  EXPECT_TRUE(d.ok()) << d.failure;
  return {d.ibridge.payload_digest, d.ibridge.image_digest,
          d.disk.stats_digest,      d.ibridge.stats_digest,
          d.ssd.stats_digest,       d.ibridge.faulted ? d.ibridge.fault_digest
                                                      : 0};
}

// The acceptance criterion, in-tree: full differential cases on the sharded
// core pass the differential oracle and repeat with byte-identical digests,
// healthy and under mixed fault injection.  Every other iteration also
// turns on shard groups (several servers per shard) and adaptive lookahead.
// (ctest -L fuzz scales the fleet up.)
TEST(ShardFuzz, DifferentialDigestsRepeatOnShardedCore) {
  const int iters = std::max(3, fuzz_iterations(200) / 40);
  for (int i = 0; i < iters; ++i) {
    const std::uint64_t seed = 0x51a4d5eedULL + static_cast<std::uint64_t>(i);
    FuzzCase c = generate_case(seed);
    c.base.shards = 1;
    if (i % 2 == 1) {
      c.faults = fault::make_scenario(fault::Scenario::kMixed,
                                      c.base.data_servers, seed,
                                      sim::SimTime::millis(40));
    }
    if (i % 2 == 0) {
      c.base.shard_group_size = 2 + static_cast<int>(seed % 3);
      c.base.adaptive_window_us = 40.0;
    }
    const CaseDigests first = digests_of(c);
    ASSERT_EQ(digests_of(c), first)
        << "seed=" << seed
        << (c.faults.empty() ? " (healthy)" : " (mixed faults)");
  }
}

}  // namespace
}  // namespace ibridge::check
