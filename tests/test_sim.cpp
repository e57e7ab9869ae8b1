// Tests for the discrete-event simulation kernel: clock, event ordering,
// coroutine tasks, and the awaitable synchronization primitives.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/buffer_pool.hpp"
#include "sim/digest.hpp"
#include "sim/inline_event.hpp"
#include "sim/mem_pool.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"

namespace ibridge::sim {
namespace {

// ------------------------------------------------------------- SimTime ----

TEST(SimTime, UnitConstructorsAgree) {
  EXPECT_EQ(SimTime::micros(1).ns(), 1000);
  EXPECT_EQ(SimTime::millis(1).ns(), 1'000'000);
  EXPECT_EQ(SimTime::seconds(1).ns(), 1'000'000'000);
  EXPECT_EQ(SimTime::seconds(2), SimTime::millis(2000));
}

TEST(SimTime, FromSecondsRoundTrips) {
  const SimTime t = SimTime::from_seconds(1.5);
  EXPECT_DOUBLE_EQ(t.to_seconds(), 1.5);
  EXPECT_DOUBLE_EQ(t.to_millis(), 1500.0);
}

TEST(SimTime, ArithmeticAndComparison) {
  const SimTime a = SimTime::millis(3), b = SimTime::millis(2);
  EXPECT_EQ((a + b).ns(), SimTime::millis(5).ns());
  EXPECT_EQ((a - b).ns(), SimTime::millis(1).ns());
  EXPECT_EQ((a * 2).ns(), SimTime::millis(6).ns());
  EXPECT_EQ((a / 3).ns(), SimTime::millis(1).ns());
  EXPECT_LT(b, a);
  EXPECT_GE(a, a);
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ(SimTime::nanos(12).to_string(), "12ns");
  EXPECT_NE(SimTime::micros(12).to_string().find("us"), std::string::npos);
  EXPECT_NE(SimTime::millis(12).to_string().find("ms"), std::string::npos);
  EXPECT_NE(SimTime::seconds(2).to_string().find("s"), std::string::npos);
}

// ----------------------------------------------------------- Simulator ----

TEST(Simulator, ExecutesInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime::millis(3), [&] { order.push_back(3); });
  sim.schedule(SimTime::millis(1), [&] { order.push_back(1); });
  sim.schedule(SimTime::millis(2), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), SimTime::millis(3));
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulator, SameTickIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 8; ++i) {
    sim.schedule(SimTime::millis(5), [&, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, DeferRunsAfterCurrentTickCallbacks) {
  Simulator sim;
  std::vector<int> order;
  sim.schedule(SimTime::zero(), [&] {
    sim.defer([&] { order.push_back(2); });
    order.push_back(1);
  });
  sim.schedule(SimTime::zero(), [&] { order.push_back(10); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 10, 2}));
}

TEST(Simulator, FifoSurvivesHeavyDeferChains) {
  // Regression for the heap-based event queue: every defer() from inside a
  // running event lands behind the callbacks already queued for the tick,
  // and the relative order of concurrently growing defer chains is stable.
  // The old priority_queue implementation moved events out of top() via
  // const_cast; this exercises the pop path hard enough that any ordering
  // corruption from the replacement idiom would scramble the transcript.
  Simulator sim;
  std::vector<std::pair<int, int>> order;  // (chain, depth)
  constexpr int kChains = 16, kDepth = 32;
  std::function<void(int, int)> link = [&](int chain, int depth) {
    order.emplace_back(chain, depth);
    if (depth + 1 < kDepth) sim.defer([&, chain, depth] { link(chain, depth + 1); });
  };
  for (int c = 0; c < kChains; ++c) {
    sim.schedule(SimTime::millis(7), [&, c] { link(c, 0); });
  }
  sim.run();
  ASSERT_EQ(order.size(), static_cast<std::size_t>(kChains * kDepth));
  // Same-tick FIFO makes the chains advance in lockstep: the transcript is
  // depth-major (all chains at depth 0, then all at depth 1, ...).
  for (int d = 0; d < kDepth; ++d) {
    for (int c = 0; c < kChains; ++c) {
      const auto& [chain, depth] = order[static_cast<std::size_t>(d * kChains + c)];
      EXPECT_EQ(chain, c) << "at depth " << d;
      EXPECT_EQ(depth, d) << "for chain " << c;
    }
  }
  EXPECT_EQ(sim.now(), SimTime::millis(7));
}

TEST(Simulator, NestedSchedulingAdvancesClock) {
  Simulator sim;
  SimTime inner_time;
  sim.schedule(SimTime::millis(1), [&] {
    sim.schedule(SimTime::millis(4), [&] { inner_time = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner_time, SimTime::millis(5));
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.schedule(SimTime::millis(1), [&] { ++fired; });
  sim.schedule(SimTime::millis(10), [&] { ++fired; });
  sim.run_until(SimTime::millis(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), SimTime::millis(5));
  EXPECT_EQ(sim.pending(), 1u);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, RunWhilePendingStopsOnPredicate) {
  Simulator sim;
  int count = 0;
  for (int i = 1; i <= 10; ++i) {
    sim.schedule(SimTime::millis(i), [&] { ++count; });
  }
  EXPECT_TRUE(sim.run_while_pending([&] { return count >= 4; }));
  EXPECT_EQ(count, 4);
}

TEST(Simulator, RunWhilePendingReturnsFalseWhenDrained) {
  Simulator sim;
  sim.schedule(SimTime::millis(1), [] {});
  EXPECT_FALSE(sim.run_while_pending([] { return false; }));
}

// ---------------------------------------------------------------- Task ----

Task<int> forty_two() { co_return 42; }

Task<int> add(int a, int b) {
  const int x = co_await forty_two();
  co_return a + b + x - 42;
}

Task<> outer(Simulator& sim, std::vector<int>& log) {
  log.push_back(1);
  co_await Delay{sim, SimTime::millis(5)};
  log.push_back(2);
  const int v = co_await add(2, 3);
  log.push_back(v);
}

TEST(Task, NestedAwaitReturnsValue) {
  Simulator sim;
  std::vector<int> log;
  auto t = outer(sim, log);
  t.start();
  sim.run();
  EXPECT_TRUE(t.finished());
  EXPECT_EQ(log, (std::vector<int>{1, 2, 5}));
  EXPECT_EQ(sim.now(), SimTime::millis(5));
}

TEST(Task, MoveTransfersOwnership) {
  Simulator sim;
  std::vector<int> log;
  auto t = outer(sim, log);
  Task<> u = std::move(t);
  EXPECT_FALSE(t.valid());
  EXPECT_TRUE(u.valid());
  u.start();
  sim.run();
  EXPECT_TRUE(u.finished());
}

TEST(Task, UnstartedTaskIsDestroyedSafely) {
  Simulator sim;
  std::vector<int> log;
  { auto t = outer(sim, log); }  // never started
  EXPECT_TRUE(log.empty());
}

// --------------------------------------------------------------- Delay ----

Task<> delayer(Simulator& sim, SimTime d, SimTime& when) {
  co_await Delay{sim, d};
  when = sim.now();
}

TEST(Delay, SuspendsForExactDuration) {
  Simulator sim;
  SimTime when;
  auto t = delayer(sim, SimTime::micros(123), when);
  t.start();
  sim.run();
  EXPECT_EQ(when, SimTime::micros(123));
}

TEST(Delay, ZeroDelayDoesNotSuspend) {
  Simulator sim;
  SimTime when = SimTime::millis(99);
  auto t = delayer(sim, SimTime::zero(), when);
  t.start();
  EXPECT_EQ(when, SimTime::zero());  // completed synchronously
}

// ----------------------------------------------------------- Completion ----

Task<> consume(Completion<int>& c, int& out) { out = co_await c; }

TEST(Completion, AwaitBeforeComplete) {
  Simulator sim;
  Completion<int> c;
  int out = 0;
  auto t = consume(c, out);
  t.start();
  EXPECT_EQ(out, 0);
  sim.schedule(SimTime::millis(2), [&] { c.complete(sim, 7); });
  sim.run();
  EXPECT_EQ(out, 7);
  // complete() deferred the resume: the timer event, then the wake-up.
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Completion, AwaitAfterCompleteIsImmediate) {
  Simulator sim;
  Completion<int> c;
  c.complete(sim, 9);
  int out = 0;
  auto t = consume(c, out);
  t.start();
  EXPECT_EQ(out, 9);  // complete record: no suspension
  EXPECT_EQ(sim.pending(), 0u);  // and, with no consumer, nothing deferred
}

TEST(Completion, GetAfterRun) {
  Simulator sim;
  Completion<int> c;
  EXPECT_FALSE(c.ready());
  sim.schedule(SimTime::millis(1), [&] { c.complete(sim, 3); });
  sim.run();
  EXPECT_TRUE(c.ready());
  EXPECT_EQ(c.get(), 3);
}

// ----------------------------------------------------------- SyncBarrier ----

Task<> barrier_rank(Simulator& sim, SyncBarrier& b, SimTime d,
                    std::vector<SimTime>& done) {
  co_await Delay{sim, d};
  co_await b.arrive();
  done.push_back(sim.now());
}

TEST(SyncBarrier, ReleasesWhenAllArrive) {
  Simulator sim;
  SyncBarrier b(sim, 3);
  std::vector<SimTime> done;
  TaskGroup group(sim);
  group.spawn(barrier_rank(sim, b, SimTime::millis(1), done));
  group.spawn(barrier_rank(sim, b, SimTime::millis(5), done));
  group.spawn(barrier_rank(sim, b, SimTime::millis(3), done));
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  for (const auto& t : done) EXPECT_EQ(t, SimTime::millis(5));
}

Task<> barrier_loop(Simulator& sim, SyncBarrier& b, int iters,
                    std::vector<int>& log, int id) {
  for (int i = 0; i < iters; ++i) {
    co_await Delay{sim, SimTime::millis(id + 1)};
    co_await b.arrive();
    log.push_back(i * 10 + id);
  }
}

TEST(SyncBarrier, IsReusableAcrossIterations) {
  Simulator sim;
  SyncBarrier b(sim, 2);
  std::vector<int> log;
  TaskGroup group(sim);
  group.spawn(barrier_loop(sim, b, 3, log, 0));
  group.spawn(barrier_loop(sim, b, 3, log, 1));
  sim.run();
  ASSERT_EQ(log.size(), 6u);
  // Iterations complete in order; within an iteration both ranks release.
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(log[static_cast<size_t>(2 * i)] / 10, i);
    EXPECT_EQ(log[static_cast<size_t>(2 * i + 1)] / 10, i);
  }
}

TEST(SyncBarrier, SinglePartyNeverBlocks) {
  Simulator sim;
  SyncBarrier b(sim, 1);
  std::vector<SimTime> done;
  TaskGroup group(sim);
  group.spawn(barrier_rank(sim, b, SimTime::millis(1), done));
  sim.run();
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0], SimTime::millis(1));
}

// ------------------------------------------------------------ Semaphore ----

Task<> sem_user(Simulator& sim, Semaphore& s, SimTime hold, int id,
                std::vector<int>& order) {
  co_await s.acquire();
  order.push_back(id);
  co_await Delay{sim, hold};
  s.release();
}

TEST(Semaphore, LimitsConcurrencyAndWakesFifo) {
  Simulator sim;
  Semaphore s(sim, 2);
  std::vector<int> order;
  TaskGroup group(sim);
  for (int i = 0; i < 5; ++i) {
    group.spawn(sem_user(sim, s, SimTime::millis(10), i, order));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_EQ(s.available(), 2);
}

TEST(Semaphore, ReleaseWithoutWaitersIncrements) {
  Simulator sim;
  Semaphore s(sim, 0);
  s.release();
  EXPECT_EQ(s.available(), 1);
}

// -------------------------------------------------------------- JoinSet ----

Task<> tick(Simulator& sim, SimTime d, int& counter) {
  co_await Delay{sim, d};
  ++counter;
}

Task<> join_parent(Simulator& sim, int n, int& counter, bool& joined) {
  JoinSet js(sim);
  for (int i = 0; i < n; ++i) {
    js.add(tick(sim, SimTime::millis(i + 1), counter));
  }
  co_await js.join();
  joined = true;
}

TEST(JoinSet, WaitsForAllChildren) {
  Simulator sim;
  int counter = 0;
  bool joined = false;
  auto t = join_parent(sim, 7, counter, joined);
  t.start();
  sim.run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(counter, 7);
  EXPECT_EQ(sim.now(), SimTime::millis(7));
}

TEST(JoinSet, EmptyJoinIsImmediate) {
  Simulator sim;
  int counter = 0;
  bool joined = false;
  auto t = join_parent(sim, 0, counter, joined);
  t.start();
  EXPECT_TRUE(joined);
}

// A fork/join over records completed at scrambled times, three per tick,
// amid labelled bystander events: on each tick some are scheduled before
// the completions, some after, and each completion defers one more.  Child
// i joins as a task awaiting its record when as_task(i), as the bare record
// otherwise.  Returns the label log (the joiner's resume included) and the
// number of events executed.
Task<> await_record(Completion<int>& c) { co_await c; }

template <typename AsTask>
Task<> join_records(Simulator& sim, std::vector<Completion<int>>& rs,
                    AsTask as_task, std::vector<std::string>& log) {
  JoinSet js(sim);
  for (std::size_t i = 0; i < rs.size(); ++i) {
    if (as_task(i)) {
      js.add(await_record(rs[i]));
    } else {
      js.add(rs[i]);
    }
  }
  co_await js.join();
  log.push_back("joined@" + std::to_string(sim.now().ns()));
}

template <typename AsTask>
std::pair<std::vector<std::string>, std::uint64_t> run_join(AsTask as_task) {
  constexpr int kChildren = 12;
  constexpr int kTicks = 4;
  Simulator sim;
  std::vector<std::string> log;
  const auto label = [&](std::string name) {
    return InlineEvent([&sim, &log, name = std::move(name)] {
      log.push_back(name + "@" + std::to_string(sim.now().ns()));
    });
  };
  std::vector<Completion<int>> rs(kChildren);
  for (int t = 1; t <= kTicks; ++t) {
    sim.schedule_at(SimTime::millis(t), label("before" + std::to_string(t)));
  }
  for (int i = 0; i < kChildren; ++i) {
    sim.schedule_at(SimTime::millis(1 + (i * 7) % kTicks), [&, i] {
      rs[static_cast<std::size_t>(i)].complete(sim, i);
      sim.defer(label("defer" + std::to_string(i)));
    });
  }
  for (int t = 1; t <= kTicks; ++t) {
    sim.schedule_at(SimTime::millis(t), label("after" + std::to_string(t)));
  }
  auto joiner = join_records(sim, rs, as_task, log);
  joiner.start();
  sim.run();
  return {log, sim.events_executed()};
}

TEST(JoinSet, JoinedRecordsKeepTheTaskChildSchedule) {
  const auto tasks = run_join([](std::size_t) { return true; });
  const auto records = run_join([](std::size_t) { return false; });
  EXPECT_EQ(records.first, tasks.first);
  EXPECT_EQ(records.second, tasks.second);
  // The joiner resumes one deferral after the last arrival, which itself
  // lands one deferral after the last completion (children 1, 5 and 9 share
  // tick 4, and 9 completes last).
  ASSERT_GE(tasks.first.size(), 2u);
  EXPECT_EQ(tasks.first.back(), "joined@4000000");
  EXPECT_EQ(tasks.first[tasks.first.size() - 2], "defer9@4000000");
}

TEST(JoinSet, MixedTaskAndRecordChildrenKeepTheSchedule) {
  const auto tasks = run_join([](std::size_t) { return true; });
  const auto mixed = run_join([](std::size_t i) { return i % 2 == 0; });
  EXPECT_EQ(mixed.first, tasks.first);
  EXPECT_EQ(mixed.second, tasks.second);
}

// ------------------------------------------------------------ TaskGroup ----

TEST(TaskGroup, TracksCompletionAndReaps) {
  Simulator sim;
  TaskGroup group(sim);
  int counter = 0;
  for (int i = 0; i < 100; ++i) {
    group.spawn(tick(sim, SimTime::millis(1), counter));
    sim.run();
  }
  EXPECT_EQ(counter, 100);
  EXPECT_TRUE(group.all_finished());
  // Finished frames at the front are reaped on spawn, bounding memory.
  EXPECT_LE(group.size(), 2u);
}

// ------------------------------------------------------------------ Rng ----

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a() == b());
  EXPECT_LT(same, 4);
}

TEST(Rng, BelowStaysInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(10), 10u);
}

TEST(Rng, UniformCoversRangeInclusive) {
  Rng r(7);
  bool lo = false, hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = r.uniform(3, 5);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 5);
    lo = lo || v == 3;
    hi = hi || v == 5;
  }
  EXPECT_TRUE(lo);
  EXPECT_TRUE(hi);
}

TEST(Rng, Uniform01InUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(5);
  Rng child = a.fork();
  Rng a2(5);
  (void)a2.fork();
  // Parent stream after fork must equal a reference that also forked once.
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a(), a2());
  (void)child;
}

// --------------------------------------------------------------- Digest ----

TEST(Digest, ReproducesPinnedValues) {
  // Values the SimCheck digest and the fault engine's digest (then two
  // copies of this algorithm) produced on the same input; every simcheck
  // and fault digest file depends on them staying put.
  EXPECT_EQ(Digest().value(), 0xc3817c016ba4ff30ULL);
  EXPECT_EQ(Digest().update_u64(42).update("batch.write").value(),
            0x94c97e9ac36d4f4dULL);
  const std::byte bytes[] = {std::byte{1}, std::byte{2}};
  EXPECT_EQ(Digest().update_i64(-7).update(std::span(bytes)).value(),
            0x285478cb6674f735ULL);
}

// --------------------------------------------------------- InlineEvent ----

TEST(InlineEvent, SmallTriviallyCopyableClosureStoresInline) {
  int a = 0, b = 0;
  int* pa = &a;
  int* pb = &b;
  auto fn = [pa, pb, k = 7] {
    *pa = k;
    *pb = k + 1;
  };
  static_assert(InlineEvent::stored_inline<decltype(fn)>());
  InlineEvent ev(std::move(fn));
  EXPECT_TRUE(static_cast<bool>(ev));
  ev();
  EXPECT_EQ(a, 7);
  EXPECT_EQ(b, 8);
}

TEST(InlineEvent, OversizedClosureFallsBackToHeapTransparently) {
  std::array<char, 64> big{};
  big[0] = 'x';
  big[63] = 'y';
  char out0 = 0, out63 = 0;
  char* p0 = &out0;
  char* p63 = &out63;
  auto fn = [big, p0, p63] {
    *p0 = big[0];
    *p63 = big[63];
  };
  static_assert(!InlineEvent::stored_inline<decltype(fn)>());
  InlineEvent ev(std::move(fn));
  ev();
  EXPECT_EQ(out0, 'x');
  EXPECT_EQ(out63, 'y');
}

TEST(InlineEvent, MoveTransfersOwnershipAndEmptiesSource) {
  int hits = 0;
  InlineEvent a([&hits] { ++hits; });
  InlineEvent b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);

  InlineEvent c;
  c = std::move(b);
  EXPECT_FALSE(static_cast<bool>(b));  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineEvent, NonTriviallyCopyableCaptureDestroysExactlyOnce) {
  // shared_ptr captures take the non-trivial Ops path (real relocate and
  // destroy slots); the refcount proves construction/destruction balance
  // across moves for both the inline and heap regimes.
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    auto fn = [token] { (void)*token; };
    static_assert(InlineEvent::stored_inline<decltype(fn)>());
    InlineEvent ev(std::move(fn));
    token.reset();
    EXPECT_FALSE(watch.expired());
    InlineEvent moved(std::move(ev));
    EXPECT_FALSE(watch.expired());
    moved();
  }
  EXPECT_TRUE(watch.expired());
}

TEST(InlineEvent, HeapClosureSurvivesMoves) {
  auto token = std::make_shared<int>(9);
  std::weak_ptr<int> watch = token;
  std::array<char, 80> pad{};
  int got = 0;
  int* pgot = &got;
  {
    InlineEvent ev([token, pad, pgot] { *pgot = *token + pad[0]; });
    token.reset();
    InlineEvent moved(std::move(ev));
    InlineEvent assigned;
    assigned = std::move(moved);
    assigned();
    EXPECT_EQ(got, 9);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

// ---------------------------------------------------------- VectorPool ----

TEST(VectorPool, ReusesReturnedCapacity) {
  BufferPool pool;
  const std::byte* data = nullptr;
  {
    auto lease = pool.acquire();
    lease->resize(4096);
    data = lease->data();
  }
  EXPECT_EQ(pool.idle(), 1u);
  {
    auto lease = pool.acquire();
    EXPECT_TRUE(lease->empty());           // cleared...
    EXPECT_GE(lease->capacity(), 4096u);   // ...but capacity survives
    lease->resize(4096);
    EXPECT_EQ(lease->data(), data);        // same backing store, no realloc
  }
  EXPECT_EQ(pool.fresh_acquires(), 1u);
  EXPECT_EQ(pool.reused_acquires(), 1u);
}

TEST(VectorPool, SizedAcquireValueInitializes) {
  BufferPool pool;
  {
    auto lease = pool.acquire(16);
    (*lease)[0] = std::byte{0xFF};
  }
  auto lease = pool.acquire(16);
  EXPECT_EQ(lease->size(), 16u);
  EXPECT_EQ((*lease)[0], std::byte{0});  // scrubbed, not stale
}

TEST(VectorPool, LeaseMoveKeepsSingleOwnership) {
  BufferPool pool;
  auto a = pool.acquire();
  a->resize(8);
  auto b = std::move(a);
  EXPECT_EQ(b->size(), 8u);
  EXPECT_EQ(pool.idle(), 0u);  // moved-from lease returned nothing
  b = pool.acquire();          // assignment over releases the first buffer
  EXPECT_EQ(pool.idle(), 1u);
}

TEST(VectorPool, EmptyBuffersAreNotPooled) {
  BufferPool pool;
  { auto lease = pool.acquire(); }  // never grew: nothing worth keeping
  EXPECT_EQ(pool.idle(), 0u);
}

// -------------------------------------------- event queue order oracle ----

TEST(Simulator, RandomizedScheduleMatchesStableSortOracle) {
  // Differential regression for the 4-ary slot-heap: the observable fire
  // order of randomized schedule_at() calls — including events scheduled
  // from inside running events — must equal a stable sort of (time, arrival
  // index), which is exactly the documented time-order + same-tick-FIFO
  // contract the old binary heap implemented.
  Rng rng(0xC0FFEE);
  Simulator sim;
  std::vector<std::pair<std::int64_t, int>> expected;  // (time_ns, id)
  std::vector<int> fired;
  int next_id = 0;

  auto add = [&](std::int64_t t_ns) {
    const int id = next_id++;
    expected.emplace_back(t_ns, id);
    sim.schedule_at(SimTime::nanos(t_ns), [&fired, id] { fired.push_back(id); });
    return id;
  };

  for (int i = 0; i < 500; ++i) {
    const auto t = static_cast<std::int64_t>(rng.below(64));
    add(t);
    if (rng.below(4) == 0) {
      // A quarter of the events spawn a child at fire time, exercising
      // pushes interleaved with pops on a live heap.
      const int id = next_id++;
      const auto child_extra = static_cast<std::int64_t>(rng.below(16));
      sim.schedule_at(
          SimTime::nanos(t), [&sim, &fired, id, child_extra] {
            fired.push_back(id);
            const std::int64_t when = sim.now().ns() + child_extra;
            sim.schedule_at(SimTime::nanos(when),
                            [&fired, id] { fired.push_back(1000000 + id); });
          });
      expected.emplace_back(t, id);
    }
  }
  sim.run();
  EXPECT_EQ(sim.events_executed(), fired.size());
  // Verify the top-level events against the oracle; child events interleave
  // by the same rule, so spot-check global time monotonicity instead of
  // rebuilding the full merged transcript.
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<int> fired_top;
  for (int id : fired) {
    if (id < 1000000) fired_top.push_back(id);
  }
  ASSERT_EQ(fired_top.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(fired_top[i], expected[i].second) << "position " << i;
  }
}

TEST(Simulator, ReserveDoesNotDisturbExecution) {
  Simulator sim;
  sim.reserve(1024);
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    sim.schedule(SimTime::nanos(64 - i), [&order, i] { order.push_back(i); });
  }
  sim.reserve(16);  // never shrinks, no-op
  sim.run();
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(order[static_cast<std::size_t>(i)], 63 - i);
  }
}

// -------------------------------------------- chunk pool / frame pool ----

TEST(ChunkPool, RecyclesChunksWithinASizeClass) {
  ChunkPool pool;
  void* a = pool.allocate(100);  // 65..128 size class
  EXPECT_EQ(pool.fresh_allocs(), 1u);
  pool.deallocate(a, 100);
  EXPECT_EQ(pool.idle_chunks(), 1u);
  void* b = pool.allocate(128);  // same class, must reuse the chunk
  EXPECT_EQ(b, a);
  EXPECT_EQ(pool.fresh_allocs(), 1u);
  EXPECT_EQ(pool.reused_allocs(), 1u);
  void* c = pool.allocate(40);  // different class -> fresh
  EXPECT_EQ(pool.fresh_allocs(), 2u);
  pool.deallocate(b, 128);
  pool.deallocate(c, 40);
  EXPECT_EQ(pool.idle_chunks(), 2u);
}

TEST(ChunkPool, OversizeRequestsBypassThePool) {
  ChunkPool pool;
  void* p = pool.allocate(ChunkPool::kMaxChunk + 1);
  ASSERT_NE(p, nullptr);
  pool.deallocate(p, ChunkPool::kMaxChunk + 1);
  EXPECT_EQ(pool.idle_chunks(), 0u);
  EXPECT_EQ(pool.fresh_allocs(), 0u);  // stats track pooled classes only
  EXPECT_EQ(pool.reused_allocs(), 0u);
}

TEST(ChunkPool, PrimedChunksStayPooledPastTheIdleCap) {
  constexpr std::size_t kSize = ChunkPool::kMaxChunk;
  constexpr std::size_t kCap = ChunkPool::kMaxIdleBytesPerBucket / kSize;
  constexpr std::size_t kPrimed = 8;
  ChunkPool pool;
  pool.prime(kSize, kPrimed);
  EXPECT_EQ(pool.idle_chunks(), kPrimed);
  std::vector<void*> held;
  for (std::size_t i = 0; i < kCap + 40; ++i) {
    held.push_back(pool.allocate(kSize));
  }
  EXPECT_EQ(pool.reused_allocs(), kPrimed);
  EXPECT_EQ(pool.fresh_allocs(), kCap + 40 - kPrimed);
  // Fresh chunks first: they fill the idle list to its cap, so the primed
  // chunks, carved from one block, arrive past it and must stay pooled
  // (freeing one alone would free an interior pointer).
  for (auto it = held.rbegin(); it != held.rend(); ++it) {
    pool.deallocate(*it, kSize);
  }
  EXPECT_EQ(pool.idle_chunks(), kCap + kPrimed);
}

Task<> frame_pool_leaf() { co_return; }
Task<> frame_pool_chain() {
  co_await frame_pool_leaf();
  co_await frame_pool_leaf();
}

TEST(FramePool, SteadyStateTaskChainsReuseFrames) {
  ChunkPool& pool = frame_pool();
  {
    Task<> warm = frame_pool_chain();
    warm.start();
  }  // chain + leaf frames now sit idle in the pool
  const std::uint64_t fresh0 = pool.fresh_allocs();
  const std::uint64_t reused0 = pool.reused_allocs();
  for (int i = 0; i < 64; ++i) {
    Task<> t = frame_pool_chain();
    t.start();
  }
  EXPECT_EQ(pool.fresh_allocs(), fresh0);  // no chunk left the allocator
  // Each iteration resumes one chain frame and two leaf frames from the
  // free lists.
  EXPECT_GE(pool.reused_allocs(), reused0 + 64u * 3u);
}

}  // namespace
}  // namespace ibridge::sim
