// Tests for the fault scenario engine: schedule parsing/ordering, the
// seeded GC-pause and read-variability models ("same seed, same pause
// trace"), the dirty-position bitmap, and a crash-point sweep that cuts the
// write-back path at every phase boundary and asserts full recovery.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "check/differential.hpp"
#include "check/generator.hpp"
#include "check/invariants.hpp"
#include "cluster/cluster.hpp"
#include "fault/engine.hpp"
#include "fault/model.hpp"
#include "fault/schedule.hpp"
#include "obs/trace.hpp"
#include "storage/block.hpp"

namespace ibridge::fault {
namespace {

using sim::SimTime;
using storage::IoDirection;

FaultSchedule sample_schedule() {
  FaultSchedule s;
  s.seed = 42;
  s.gc.push_back({1, 8 << 20, SimTime::micros(750)});
  s.gc.push_back({-1, 16 << 20, SimTime::millis(2)});
  s.readvar.push_back(
      {0, 0.25, SimTime::micros(10), SimTime::micros(900)});
  s.crashes.push_back({2, SimTime::millis(40), SimTime::millis(5),
                       "batch.staged", 64 << 10, SimTime::millis(2)});
  s.crashes.push_back({0, SimTime::millis(10), SimTime::millis(1),
                       "batch.begin", 128 << 10, SimTime::millis(1)});
  return s;
}

bool parses(const std::string& text, std::string* error = nullptr) {
  std::istringstream is(text);
  FaultSchedule s;
  return parse_schedule(is, s, error);
}

TEST(FaultScheduleText, RoundTripPreservesEverySpec) {
  const FaultSchedule s = sample_schedule();
  std::ostringstream os;
  write_schedule(os, s);

  FaultSchedule t;
  std::istringstream is(os.str());
  std::string error;
  ASSERT_TRUE(parse_schedule(is, t, &error)) << error;

  EXPECT_EQ(t.seed, 42u);
  ASSERT_EQ(t.gc.size(), 2u);
  EXPECT_EQ(t.gc[0].server, 1);
  EXPECT_EQ(t.gc[0].churn_bytes, 8 << 20);
  EXPECT_EQ(t.gc[0].pause.ns(), SimTime::micros(750).ns());
  EXPECT_EQ(t.gc[1].server, -1);
  ASSERT_EQ(t.readvar.size(), 1u);
  EXPECT_EQ(t.readvar[0].server, 0);
  EXPECT_DOUBLE_EQ(t.readvar[0].probability, 0.25);
  EXPECT_EQ(t.readvar[0].min_extra.ns(), SimTime::micros(10).ns());
  EXPECT_EQ(t.readvar[0].max_extra.ns(), SimTime::micros(900).ns());
  ASSERT_EQ(t.crashes.size(), 2u);
  // Parsing normalizes: the 10 ms crash sorts before the 40 ms one.
  EXPECT_EQ(t.crashes[0].server, 0);
  EXPECT_EQ(t.crashes[0].phase, "batch.begin");
  EXPECT_EQ(t.crashes[1].server, 2);
  EXPECT_EQ(t.crashes[1].phase, "batch.staged");

  // The digest is order-insensitive, so it survives the round trip.
  EXPECT_EQ(schedule_digest(s), schedule_digest(t));
}

TEST(FaultScheduleText, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parses("", &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
  EXPECT_FALSE(parses("seed 1\n"));  // records before the magic line
  EXPECT_FALSE(parses("ibridge-fault-schedule-v1\n"));  // no seed record
  EXPECT_FALSE(parses("ibridge-fault-schedule-v1\nseed 1\nwobble 3\n"));
  EXPECT_FALSE(
      parses("ibridge-fault-schedule-v1\nseed 1\ngc 0 -4096 1000\n"));
  EXPECT_FALSE(
      parses("ibridge-fault-schedule-v1\nseed 1\nreadvar 0 1.5 10 20\n"));
  EXPECT_FALSE(
      parses("ibridge-fault-schedule-v1\nseed 1\nreadvar 0 0.5 30 20\n"));
  EXPECT_FALSE(parses("ibridge-fault-schedule-v1\nseed 1\n"
                      "crash 0 1000 1000 batch.bogus 1024 1000\n",
                      &error));
  EXPECT_NE(error.find("crash"), std::string::npos) << error;

  // Comments and blank lines are fine.
  EXPECT_TRUE(parses("# a repro schedule\n\nibridge-fault-schedule-v1\n"
                     "seed 7\n  # trailing comment line\n"
                     "crash 1 1000 1000 batch.clean 1024 1000\n"));
}

TEST(FaultScheduleText, NormalizeOrdersCrashesByTimeThenServer) {
  FaultSchedule s;
  s.crashes.push_back({3, SimTime::millis(5), SimTime::millis(1),
                       "batch.write", 1 << 10, SimTime::millis(1)});
  s.crashes.push_back({1, SimTime::millis(5), SimTime::millis(1),
                       "batch.write", 1 << 10, SimTime::millis(1)});
  s.crashes.push_back({0, SimTime::millis(2), SimTime::millis(1),
                       "batch.write", 1 << 10, SimTime::millis(1)});
  const std::uint64_t before = schedule_digest(s);
  normalize(s);
  EXPECT_EQ(s.crashes[0].server, 0);
  EXPECT_EQ(s.crashes[1].server, 1);
  EXPECT_EQ(s.crashes[2].server, 3);
  EXPECT_EQ(schedule_digest(s), before);
}

TEST(FaultScheduleText, WritebackPhasesMatchTheGateOrder) {
  const auto& ps = writeback_phases();
  ASSERT_EQ(ps.size(), 4u);
  EXPECT_EQ(ps[0], "batch.begin");
  EXPECT_EQ(ps[1], "batch.staged");
  EXPECT_EQ(ps[2], "batch.write");
  EXPECT_EQ(ps[3], "batch.clean");
}

TEST(FaultScenario, DerivedSchedulesAreDeterministic) {
  const SimTime horizon = SimTime::millis(60);
  for (Scenario sc : {Scenario::kGcInterference, Scenario::kCrashRestart,
                      Scenario::kMixed}) {
    const FaultSchedule a = make_scenario(sc, 3, 17, horizon);
    const FaultSchedule b = make_scenario(sc, 3, 17, horizon);
    EXPECT_EQ(schedule_digest(a), schedule_digest(b)) << to_string(sc);
    EXPECT_FALSE(a.empty()) << to_string(sc);
    const FaultSchedule c = make_scenario(sc, 3, 18, horizon);
    EXPECT_NE(schedule_digest(a), schedule_digest(c)) << to_string(sc);
  }
  EXPECT_TRUE(make_scenario(Scenario::kHealthy, 3, 17, horizon).empty());
}

TEST(FaultScenario, CrashLandsInsideTheHorizon) {
  const SimTime horizon = SimTime::millis(40);
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    const FaultSchedule s =
        make_scenario(Scenario::kCrashRestart, 4, seed, horizon);
    ASSERT_EQ(s.crashes.size(), 1u);
    const CrashSpec& c = s.crashes[0];
    EXPECT_GE(c.at.ns(), (horizon / 4).ns());
    EXPECT_LE(c.at.ns(), (horizon / 4 + horizon / 2).ns());
    EXPECT_GE(c.server, 0);
    EXPECT_LT(c.server, 4);
    EXPECT_TRUE(std::find(writeback_phases().begin(),
                          writeback_phases().end(),
                          c.phase) != writeback_phases().end());
  }
}

// ------------------------------------------------------- device models ----

TEST(SsdFaultModelTest, GcPausesTriggerOnWriteChurn) {
  GcSpec gc;
  gc.churn_bytes = storage::kSectorBytes * 8;
  gc.pause = SimTime::micros(500);
  SsdFaultModel m(&gc, nullptr, 7);

  // 4 sectors of writes: churn below the threshold, no pause yet.
  EXPECT_EQ(m.dispatch_delay(IoDirection::kWrite, 0, 4, SimTime::zero(),
                             SimTime::micros(100))
                .ns(),
            0);
  EXPECT_EQ(m.gc_pauses(), 0u);

  // Reads never contribute churn.
  EXPECT_EQ(m.dispatch_delay(IoDirection::kRead, 64, 32, SimTime::zero(),
                             SimTime::micros(100))
                .ns(),
            0);
  EXPECT_EQ(m.gc_pauses(), 0u);

  // 4 more sectors push churn to the threshold: the device stalls for one
  // full pause, charged to this dispatch.
  EXPECT_EQ(m.dispatch_delay(IoDirection::kWrite, 8, 4, SimTime::zero(),
                             SimTime::micros(100))
                .ns(),
            gc.pause.ns());
  EXPECT_EQ(m.gc_pauses(), 1u);
  EXPECT_EQ(m.gc_pause_time().ns(), gc.pause.ns());

  // A dispatch after the stall has elapsed pays nothing.
  EXPECT_EQ(m.dispatch_delay(IoDirection::kWrite, 16, 1, SimTime::millis(10),
                             SimTime::micros(100))
                .ns(),
            0);
  EXPECT_EQ(m.gc_pauses(), 1u);
}

TEST(SsdFaultModelTest, QueuedGcPausesStack) {
  GcSpec gc;
  gc.churn_bytes = storage::kSectorBytes * 8;
  gc.pause = SimTime::micros(300);
  SsdFaultModel m(&gc, nullptr, 7);
  // 16 sectors at once: two GC cycles queue up back to back.
  EXPECT_EQ(m.dispatch_delay(IoDirection::kWrite, 0, 16, SimTime::zero(),
                             SimTime::micros(100))
                .ns(),
            2 * gc.pause.ns());
  EXPECT_EQ(m.gc_pauses(), 2u);
  EXPECT_EQ(m.gc_pause_time().ns(), 2 * gc.pause.ns());
}

TEST(SsdFaultModelTest, SameSeedSamePauseTrace) {
  GcSpec gc;
  gc.churn_bytes = storage::kSectorBytes * 4;
  gc.pause = SimTime::micros(200);
  ReadVarSpec rv;
  rv.probability = 0.5;
  rv.min_extra = SimTime::micros(10);
  rv.max_extra = SimTime::micros(400);

  SsdFaultModel a(&gc, &rv, 1234);
  SsdFaultModel b(&gc, &rv, 1234);
  SsdFaultModel c(&gc, &rv, 9999);
  auto drive = [](SsdFaultModel& m) {
    for (int i = 0; i < 256; ++i) {
      const auto dir = i % 3 == 0 ? IoDirection::kWrite : IoDirection::kRead;
      m.dispatch_delay(dir, i * 8, 2 + i % 5, SimTime::micros(i * 50),
                       SimTime::micros(80));
    }
  };
  drive(a);
  drive(b);
  drive(c);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.gc_pauses(), b.gc_pauses());
  EXPECT_EQ(a.slow_reads(), b.slow_reads());
  EXPECT_NE(a.digest(), c.digest());
}

TEST(SsdFaultModelTest, ReadVariabilityStaysInsideItsBounds) {
  ReadVarSpec rv;
  rv.probability = 1.0;  // every read slowed, so the bound check is exact
  rv.min_extra = SimTime::micros(50);
  rv.max_extra = SimTime::micros(120);
  SsdFaultModel m(nullptr, &rv, 5);
  for (int i = 0; i < 200; ++i) {
    const SimTime extra = m.dispatch_delay(
        IoDirection::kRead, i, 8, SimTime::micros(i), SimTime::micros(80));
    EXPECT_GE(extra.ns(), rv.min_extra.ns());
    EXPECT_LE(extra.ns(), rv.max_extra.ns());
    // Writes are never slowed by the read model.
    EXPECT_EQ(m.dispatch_delay(IoDirection::kWrite, i, 8, SimTime::micros(i),
                               SimTime::micros(80))
                  .ns(),
              0);
  }
  EXPECT_EQ(m.slow_reads(), 200u);
}

TEST(DirtyBitmapTest, MarksClearsAndIntersects) {
  const sim::Bytes granule{4096};
  DirtyBitmap d(sim::Bytes{64 << 10}, granule);
  EXPECT_EQ(d.tile_count(), 16);
  EXPECT_FALSE(d.any());
  EXPECT_EQ(d.set_count(), 0);

  d.mark(sim::Offset{0}, sim::Bytes{1});
  EXPECT_TRUE(d.test(0));
  EXPECT_EQ(d.set_count(), 1);

  // One byte on each side of a tile boundary touches both tiles.
  d.mark(sim::Offset{4095}, sim::Bytes{2});
  EXPECT_TRUE(d.test(0));
  EXPECT_TRUE(d.test(1));

  // A range spanning tiles 3..5 marks all three.
  d.mark(sim::Offset{3 * 4096 + 10}, sim::Bytes{2 * 4096});
  EXPECT_TRUE(d.test(3));
  EXPECT_TRUE(d.test(4));
  EXPECT_TRUE(d.test(5));
  EXPECT_EQ(d.set_count(), 5);

  d.clear(sim::Offset{4 * 4096}, sim::Bytes{4096});
  EXPECT_FALSE(d.test(4));
  EXPECT_EQ(d.set_count(), 4);

  DirtyBitmap still(sim::Bytes{64 << 10}, granule);
  still.mark(sim::Offset{0}, sim::Bytes{4096});      // tile 0
  still.mark(sim::Offset{5 * 4096}, sim::Bytes{1});  // tile 5
  d.intersect(still);
  EXPECT_TRUE(d.test(0));
  EXPECT_FALSE(d.test(1));
  EXPECT_FALSE(d.test(3));
  EXPECT_TRUE(d.test(5));
  EXPECT_EQ(d.set_count(), 2);
  EXPECT_TRUE(d.any());

  still.clear(sim::Offset{0}, sim::Bytes{64 << 10});
  EXPECT_FALSE(still.any());
  d.intersect(still);
  EXPECT_FALSE(d.any());
}

// --------------------------------------------------- cluster scenarios ----

/// A crash cut at every write-back phase boundary must recover: the
/// mapping-table replay succeeds, the invariant oracle stays green, and the
/// run report carries a fault digest.
TEST(FaultEngineTest, CrashPointSweepRecoversAtEveryPhase) {
  std::uint64_t seed = 0xfa0175;
  for (const std::string& phase : writeback_phases()) {
    const check::FuzzCase base = check::generate_case(seed++);
    check::FuzzCase c = base;
    CrashSpec crash;
    crash.server = 0;
    crash.at = SimTime::millis(2);
    crash.outage = SimTime::millis(3);
    crash.phase = phase;
    crash.drain_budget = 64 << 10;
    crash.drain_interval = SimTime::millis(1);
    c.faults.seed = seed;
    c.faults.crashes.push_back(crash);

    cluster::Cluster cl(check::make_config(c, check::Policy::kIBridge));
    check::InvariantOracle oracle;
    const check::RunReport r =
        check::run_case(cl, c, check::Policy::kIBridge, &oracle);
    EXPECT_TRUE(r.ok()) << "phase " << phase << ": " << r.failure;
    EXPECT_TRUE(oracle.ok())
        << "phase " << phase << ": " << oracle.failures().front();
    EXPECT_GT(oracle.checks_run(), 0u) << "phase " << phase;
    EXPECT_TRUE(r.faulted) << "phase " << phase;
  }
}

/// Crashing changes timing but never payloads: the same trace replayed on a
/// healthy cluster and a crashing one must return identical bytes.
TEST(FaultEngineTest, CrashRunMatchesHealthyPayload) {
  check::FuzzCase healthy = check::generate_case(0xc0ffee);
  check::FuzzCase crashy = healthy;
  crashy.faults =
      make_scenario(Scenario::kCrashRestart, crashy.base.data_servers,
                    0xc0ffee, SimTime::millis(30));
  ASSERT_FALSE(crashy.faults.empty());

  check::RunReport hr;
  {
    cluster::Cluster cl(check::make_config(healthy, check::Policy::kIBridge));
    hr = check::run_case(cl, healthy, check::Policy::kIBridge);
  }
  check::RunReport cr;
  {
    cluster::Cluster cl(check::make_config(crashy, check::Policy::kIBridge));
    cr = check::run_case(cl, crashy, check::Policy::kIBridge);
  }
  EXPECT_TRUE(hr.ok()) << hr.failure;
  EXPECT_TRUE(cr.ok()) << cr.failure;
  EXPECT_EQ(hr.payload_digest, cr.payload_digest);
  EXPECT_EQ(hr.image_digest, cr.image_digest);
  EXPECT_FALSE(hr.faulted);
  EXPECT_TRUE(cr.faulted);
}

/// Same seed + same schedule ⇒ byte-identical runs, fault digest included.
TEST(FaultEngineTest, FaultedRunsAreDeterministic) {
  check::FuzzCase c = check::generate_case(0xdecade);
  c.faults = make_scenario(Scenario::kMixed, c.base.data_servers, 0xdecade,
                           SimTime::millis(30));
  const check::DeterminismReport r =
      check::check_determinism(c, check::Policy::kIBridge);
  EXPECT_TRUE(r.identical) << r.failure;
  EXPECT_TRUE(r.failure.empty()) << r.failure;
  EXPECT_TRUE(r.first.faulted);
  EXPECT_EQ(r.first.fault_digest, r.second.fault_digest);
  EXPECT_NE(r.first.fault_digest, 0u);
}

/// Driving the engine directly: counters move, spans land in the trace, and
/// the destructor leaves the cluster healthy for a follow-up run.
TEST(FaultEngineTest, StatsAndTraceSpansAndCleanTeardown) {
  check::FuzzCase c = check::generate_case(0xbeef);
  FaultSchedule s;
  s.seed = 11;
  s.gc.push_back({-1, 128 << 10, SimTime::micros(400)});
  s.crashes.push_back({0, SimTime::millis(1), SimTime::millis(2),
                       "batch.write", 64 << 10, SimTime::millis(1)});

  cluster::Cluster cl(check::make_config(c, check::Policy::kIBridge));
  obs::TraceSession trace(cl.sim());
  {
    FaultEngine eng(cl, s);
    eng.set_trace(&trace);
    check::InvariantOracle oracle;
    const check::RunReport r =
        check::run_case(cl, c, check::Policy::kIBridge, &oracle);
    EXPECT_TRUE(r.ok()) << r.failure;
    EXPECT_TRUE(oracle.ok());
    // run_case spun up its own engine from c.faults (empty here), so this
    // engine never started; start it now against the warmed cluster.
    eng.start();
    cl.sim().run_while_pending([&] { return eng.done(); });
    EXPECT_TRUE(eng.failure().empty()) << eng.failure();
    const FaultEngine::Stats st = eng.stats();
    EXPECT_EQ(st.crashes, 1u);
    EXPECT_EQ(st.recoveries, 1u);
    EXPECT_NE(eng.digest(), 0u);
  }
  // Engine gone: the cluster must behave as if never faulted.
  const check::RunReport again =
      check::run_case(cl, c, check::Policy::kIBridge, nullptr,
                      "after-teardown.dat");
  EXPECT_TRUE(again.ok()) << again.failure;
  EXPECT_FALSE(again.faulted);
}

/// Sharded actors run on their servers' shard clocks, which one
/// TraceSession cannot follow: attaching a trace is refused in every build
/// type.
TEST(FaultEngineTest, TraceOnShardedClusterThrows) {
  check::FuzzCase c = check::generate_case(0xbeef);
  c.base.shards = 1;
  cluster::Cluster cl(check::make_config(c, check::Policy::kIBridge));
  obs::TraceSession trace(cl.sim());
  FaultEngine eng(cl, FaultSchedule{});
  EXPECT_THROW(eng.set_trace(&trace), std::logic_error);
  eng.set_trace(nullptr);
}

}  // namespace
}  // namespace ibridge::fault
