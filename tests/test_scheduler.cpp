// Tests for the I/O schedulers: merging, dispatch order, per-stream CFQ
// behaviour, and the indexed Noop merge loop against a linear-scan copy.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "storage/scheduler.hpp"

namespace ibridge::storage {
namespace {

PendingRequest make(sim::Simulator& sim, IoDirection dir, std::int64_t lbn,
                    std::int64_t sectors, int tag = 0) {
  return PendingRequest{BlockRequest{dir, lbn, sectors, tag}, sim.now()};
}

// ----------------------------------------------------------------- Noop ----

TEST(NoopScheduler, FifoOrder) {
  sim::Simulator sim;
  NoopScheduler s;
  s.add(make(sim, IoDirection::kRead, 100, 8, 0));
  s.add(make(sim, IoDirection::kRead, 50, 8, 1));
  auto b1 = s.pop_next(0);
  EXPECT_EQ(b1.lbn, 100);
  auto b2 = s.pop_next(0);
  EXPECT_EQ(b2.lbn, 50);
  EXPECT_TRUE(s.empty());
}

TEST(NoopScheduler, BackAndFrontMerge) {
  sim::Simulator sim;
  NoopScheduler s;
  s.add(make(sim, IoDirection::kRead, 100, 8));
  s.add(make(sim, IoDirection::kRead, 108, 8));  // back merge
  s.add(make(sim, IoDirection::kRead, 92, 8));   // front merge
  auto b = s.pop_next(0);
  EXPECT_EQ(b.lbn, 92);
  EXPECT_EQ(b.sectors, 24);
  EXPECT_EQ(b.members.size(), 3u);
  EXPECT_TRUE(s.empty());
}

TEST(NoopScheduler, ChainedMergesAcrossQueueOrder) {
  sim::Simulator sim;
  NoopScheduler s;
  // 100..108 and 116..124 only become mergeable once 108..116 joins.
  s.add(make(sim, IoDirection::kRead, 100, 8));
  s.add(make(sim, IoDirection::kRead, 116, 8));
  s.add(make(sim, IoDirection::kRead, 108, 8));
  auto b = s.pop_next(0);
  EXPECT_EQ(b.sectors, 24);
}

TEST(NoopScheduler, NoMergeAcrossDirections) {
  sim::Simulator sim;
  NoopScheduler s;
  s.add(make(sim, IoDirection::kRead, 100, 8));
  s.add(make(sim, IoDirection::kWrite, 108, 8));
  auto b = s.pop_next(0);
  EXPECT_EQ(b.sectors, 8);
  EXPECT_EQ(s.depth(), 1u);
}

TEST(NoopScheduler, MergeRespectsSectorCap) {
  sim::Simulator sim;
  NoopScheduler s(/*max_merge_sectors=*/16);
  s.add(make(sim, IoDirection::kRead, 0, 12));
  s.add(make(sim, IoDirection::kRead, 12, 12));
  auto b = s.pop_next(0);
  EXPECT_EQ(b.sectors, 12);  // 24 > cap, no merge
}

TEST(NoopScheduler, SameStartMergesFifoEarlierFirst) {
  sim::Simulator sim;
  NoopScheduler s;
  s.add(make(sim, IoDirection::kRead, 100, 8, 0));
  s.add(make(sim, IoDirection::kRead, 108, 4, 1));
  s.add(make(sim, IoDirection::kRead, 108, 8, 2));  // same start, queued later
  auto b = s.pop_next(0);
  // Absorbing tag 1 moves the batch end to 112, so tag 2 no longer fits.
  ASSERT_EQ(b.members.size(), 2u);
  EXPECT_EQ(b.members[1].req.tag, 1);
  EXPECT_EQ(b.sectors, 12);
  EXPECT_EQ(s.peek(0)->tag, 2);
}

TEST(NoopScheduler, MergeSkipsOversizedCandidateForLaterFit) {
  sim::Simulator sim;
  NoopScheduler s(/*max_merge_sectors=*/16);
  s.add(make(sim, IoDirection::kRead, 0, 8, 0));
  s.add(make(sim, IoDirection::kRead, 8, 12, 1));  // contiguous, 20 > cap
  s.add(make(sim, IoDirection::kRead, 8, 8, 2));   // contiguous, fits
  auto b = s.pop_next(0);
  ASSERT_EQ(b.members.size(), 2u);
  EXPECT_EQ(b.members[1].req.tag, 2);
  EXPECT_EQ(b.sectors, 16);
  EXPECT_EQ(s.peek(0)->tag, 1);
}

TEST(NoopScheduler, PeekReportsFrontRequest) {
  sim::Simulator sim;
  NoopScheduler s;
  EXPECT_FALSE(s.peek(0).has_value());
  s.add(make(sim, IoDirection::kRead, 500, 8, 3));
  auto p = s.peek(100);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->distance, 400);
  EXPECT_EQ(p->tag, 3);
}

// Reference copy of the merge loop NoopScheduler ran before it was indexed:
// after every merge, rescan the queue from the FIFO head and absorb the
// first request that back- or front-merges within the cap.
class LinearScanNoop {
 public:
  explicit LinearScanNoop(std::int64_t max_sectors)
      : max_sectors_(max_sectors) {}

  void add(PendingRequest p) { queue_.push_back(std::move(p)); }

  DispatchBatch pop_next() {
    DispatchBatch out;
    if (queue_.empty()) return out;
    out.dir = queue_.front().req.dir;
    out.lbn = queue_.front().req.lbn;
    out.sectors = queue_.front().req.sectors;
    out.members.push_back(std::move(queue_.front()));
    queue_.erase(queue_.begin());
    bool progress = true;
    while (progress) {
      progress = false;
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        const BlockRequest r = it->req;
        if (r.dir == out.dir && out.sectors + r.sectors <= max_sectors_ &&
            (r.lbn == out.end() || r.end() == out.lbn)) {
          out.lbn = std::min(out.lbn, r.lbn);
          out.sectors += r.sectors;
          out.members.push_back(std::move(*it));
          queue_.erase(it);
          progress = true;
          break;
        }
      }
    }
    return out;
  }

  std::size_t depth() const { return queue_.size(); }
  const PendingRequest* front() const {
    return queue_.empty() ? nullptr : &queue_.front();
  }

 private:
  std::int64_t max_sectors_;
  std::vector<PendingRequest> queue_;
};

/// Everything a dispatch decision fixes: direction, extent, member order.
std::vector<std::int64_t> summary(const DispatchBatch& b) {
  std::vector<std::int64_t> s = {static_cast<std::int64_t>(b.dir), b.lbn,
                                 b.sectors};
  for (const PendingRequest& p : b.members) s.push_back(p.req.tag);
  return s;
}

TEST(NoopScheduler, MatchesLinearScanReference) {
  // Requests land in a 512-sector window, so back and front merges,
  // duplicate starts and overlapping ranges are all common, and a fifth of
  // them come within a few sectors of the cap.  Add-heavy phases build
  // queues deep enough to compact; pop-heavy phases drain them dry.
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    sim::Simulator sim;
    sim::Rng rng(seed);
    const std::int64_t cap = rng.uniform(8, 64);
    NoopScheduler indexed(cap);
    LinearScanNoop linear(cap);
    int tag = 0;
    int pops = 0;
    double add_share = 0.5;
    for (int step = 0; step < 3000; ++step) {
      if (step % 250 == 0) add_share = rng.chance(0.5) ? 0.8 : 0.3;
      if (rng.chance(add_share)) {
        const IoDirection dir =
            rng.chance(0.5) ? IoDirection::kRead : IoDirection::kWrite;
        const std::int64_t lbn = rng.uniform(0, 511);
        const std::int64_t sectors =
            rng.chance(0.2) ? rng.uniform(cap - 3, cap) : rng.uniform(1, 8);
        indexed.add(make(sim, dir, lbn, sectors, tag));
        linear.add(make(sim, dir, lbn, sectors, tag));
        ++tag;
      } else {
        const DispatchBatch want = linear.pop_next();
        ASSERT_EQ(summary(indexed.pop_next(0)), summary(want))
            << "seed " << seed << " step " << step;
        if (!want.empty()) ++pops;
      }
      ASSERT_EQ(indexed.depth(), linear.depth())
          << "seed " << seed << " step " << step;
      ASSERT_EQ(indexed.empty(), linear.depth() == 0);
      const auto peek = indexed.peek(300);
      const PendingRequest* front = linear.front();
      ASSERT_EQ(peek.has_value(), front != nullptr);
      if (front != nullptr) {
        ASSERT_EQ(peek->tag, front->req.tag);
        ASSERT_EQ(peek->distance, std::llabs(front->req.lbn - 300));
      }
    }
    EXPECT_GT(pops, 64) << "seed " << seed;
  }
}

// ------------------------------------------------------------------ CFQ ----

TEST(CfqScheduler, RoundRobinAcrossStreams) {
  sim::Simulator sim;
  CfqScheduler s(/*quantum=*/1);
  s.add(make(sim, IoDirection::kRead, 100, 8, 1));
  s.add(make(sim, IoDirection::kRead, 200, 8, 2));
  s.add(make(sim, IoDirection::kRead, 108, 8, 1));
  s.add(make(sim, IoDirection::kRead, 208, 8, 2));
  std::vector<int> tags;
  while (!s.empty()) {
    auto b = s.pop_next(0);
    tags.push_back(b.members.front().req.tag);
  }
  // quantum=1: strict alternation (merging may combine same-stream pieces).
  ASSERT_GE(tags.size(), 2u);
  EXPECT_EQ(tags[0], 1);
  EXPECT_EQ(tags[1], 2);
}

TEST(CfqScheduler, QuantumKeepsStreamActive) {
  sim::Simulator sim;
  CfqScheduler s(/*quantum=*/8);
  // Non-contiguous requests within stream 1 so they can't merge.
  s.add(make(sim, IoDirection::kRead, 100, 8, 1));
  s.add(make(sim, IoDirection::kRead, 10'000, 8, 1));
  s.add(make(sim, IoDirection::kRead, 200, 8, 2));
  EXPECT_EQ(s.pop_next(0).members.front().req.tag, 1);
  EXPECT_EQ(s.pop_next(0).members.front().req.tag, 1);  // budget remains
  EXPECT_EQ(s.pop_next(0).members.front().req.tag, 2);
}

TEST(CfqScheduler, ScanOrderWithinStream) {
  sim::Simulator sim;
  CfqScheduler s;
  s.add(make(sim, IoDirection::kRead, 5000, 8, 1));
  s.add(make(sim, IoDirection::kRead, 1000, 8, 1));
  auto b = s.pop_next(2000);  // head between them -> pick 5000 (>= head)
  EXPECT_EQ(b.lbn, 5000);
}

TEST(CfqScheduler, CrossStreamContiguousAbsorb) {
  sim::Simulator sim;
  CfqScheduler s;
  s.add(make(sim, IoDirection::kRead, 100, 8, 1));
  s.add(make(sim, IoDirection::kRead, 108, 8, 2));  // other stream, adjacent
  auto b = s.pop_next(0);
  EXPECT_EQ(b.sectors, 16);
  EXPECT_EQ(b.members.size(), 2u);
  EXPECT_TRUE(s.empty());
}

TEST(CfqScheduler, CrossStreamFrontAbsorb) {
  sim::Simulator sim;
  CfqScheduler s;
  s.add(make(sim, IoDirection::kRead, 108, 8, 1));
  s.add(make(sim, IoDirection::kRead, 100, 8, 2));
  auto b = s.pop_next(104);  // picks stream 1's request first (>= head)
  EXPECT_EQ(b.lbn, 100);
  EXPECT_EQ(b.sectors, 16);
}

TEST(CfqScheduler, PeekPrefersActiveStream) {
  sim::Simulator sim;
  CfqScheduler s;
  s.add(make(sim, IoDirection::kRead, 100, 8, 1));
  (void)s.pop_next(0);  // stream 1 becomes active
  s.add(make(sim, IoDirection::kRead, 50'000, 8, 1));
  s.add(make(sim, IoDirection::kRead, 108, 8, 2));
  auto p = s.peek(108);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->tag, 1) << "active stream retains the slice";
}

TEST(CfqScheduler, DepthTracksAddsAndPops) {
  sim::Simulator sim;
  CfqScheduler s;
  for (int i = 0; i < 6; ++i) {
    s.add(make(sim, IoDirection::kRead, i * 1'000'000, 8, i % 3));
  }
  EXPECT_EQ(s.depth(), 6u);
  std::size_t popped = 0;
  while (!s.empty()) {
    popped += s.pop_next(0).members.size();
  }
  EXPECT_EQ(popped, 6u);
  EXPECT_EQ(s.depth(), 0u);
}

TEST(CfqScheduler, LastTagTracksDispatches) {
  sim::Simulator sim;
  CfqScheduler s(/*quantum=*/1);
  s.add(make(sim, IoDirection::kRead, 100, 8, 11));
  (void)s.pop_next(0);
  EXPECT_EQ(s.last_tag(), 11);
}

// Every idle-to-pending transition of a stream queues one round-robin turn,
// also while that stream is the active one, and each turn reached while the
// stream has work starts a fresh quantum.  So stream 1, which drains and
// refills after each dispatch, still holds turns queued ahead of stream 2's
// when its quantum ends, and dispatches 400 before stream 2 gets the disk.
TEST(CfqScheduler, RefilledActiveStreamKeepsItsQueuedTurns) {
  sim::Simulator sim;
  CfqScheduler s(/*quantum=*/2);
  std::vector<std::int64_t> order;
  const auto pop = [&] { order.push_back(s.pop_next(0).lbn); };
  s.add(make(sim, IoDirection::kRead, 0, 8, 1));
  pop();
  s.add(make(sim, IoDirection::kRead, 100, 8, 1));
  pop();
  s.add(make(sim, IoDirection::kRead, 200, 8, 1));
  s.add(make(sim, IoDirection::kRead, 1'000'000, 8, 2));
  pop();
  s.add(make(sim, IoDirection::kRead, 300, 8, 1));
  pop();
  s.add(make(sim, IoDirection::kRead, 400, 8, 1));
  pop();
  pop();
  EXPECT_EQ(order,
            (std::vector<std::int64_t>{0, 100, 200, 300, 400, 1'000'000}));
  EXPECT_TRUE(s.empty());
}

}  // namespace
}  // namespace ibridge::storage
