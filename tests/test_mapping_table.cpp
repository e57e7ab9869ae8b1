// Tests for the iBridge mapping table: range coverage, trim/split,
// per-class LRU and accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/invariants.hpp"
#include "core/cache.hpp"
#include "core/mapping_table.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "storage/calibration.hpp"
#include "storage/hdd.hpp"
#include "storage/ssd.hpp"

namespace ibridge::core {
namespace {

constexpr fsim::FileId kF = 1;
constexpr fsim::FileId kG = 2;

Offset off(std::int64_t v) { return Offset{v}; }
Bytes len(std::int64_t v) { return Bytes{v}; }

CacheEntry entry(std::int64_t file_off, std::int64_t length,
                 std::int64_t log_off, bool dirty = false,
                 CacheClass c = CacheClass::kRegular, double ret = 1.0) {
  return CacheEntry{kF, off(file_off), len(length), off(log_off), dirty, c,
                    ret};
}

TEST(MappingTable, ExactCoverageHit) {
  MappingTable t;
  t.insert(entry(100, 50, 1000));
  auto cov = t.coverage(kF, off(100), len(50));
  ASSERT_EQ(cov.size(), 1u);
  EXPECT_EQ(cov[0].log_off, off(1000));
  EXPECT_EQ(cov[0].length, len(50));
}

TEST(MappingTable, InteriorSliceHit) {
  MappingTable t;
  t.insert(entry(100, 50, 1000));
  auto cov = t.coverage(kF, off(110), len(20));
  ASSERT_EQ(cov.size(), 1u);
  EXPECT_EQ(cov[0].log_off, off(1010));
  EXPECT_EQ(cov[0].length, len(20));
}

TEST(MappingTable, TiledCoverageAcrossEntries) {
  MappingTable t;
  t.insert(entry(0, 100, 5000));
  t.insert(entry(100, 100, 9000));
  auto cov = t.coverage(kF, off(50), len(100));
  ASSERT_EQ(cov.size(), 2u);
  EXPECT_EQ(cov[0].log_off, off(5050));
  EXPECT_EQ(cov[0].length, len(50));
  EXPECT_EQ(cov[1].log_off, off(9000));
  EXPECT_EQ(cov[1].length, len(50));
}

TEST(MappingTable, GapMeansMiss) {
  MappingTable t;
  t.insert(entry(0, 100, 5000));
  t.insert(entry(150, 100, 9000));
  EXPECT_TRUE(t.coverage(kF, off(50), len(150)).empty());
  EXPECT_TRUE(t.coverage(kF, off(240), len(20)).empty());
  EXPECT_TRUE(t.coverage(kG, off(0), len(10)).empty());
}

TEST(MappingTable, OverlappingFindsAllIntersections) {
  MappingTable t;
  const EntryId a = t.insert(entry(0, 100, 0));
  const EntryId b = t.insert(entry(200, 100, 200));
  const EntryId c = t.insert(entry(400, 100, 400));
  (void)c;
  auto ov = t.overlapping(kF, off(90), len(150));  // clips a and b
  ASSERT_EQ(ov.size(), 2u);
  EXPECT_EQ(ov[0], a);
  EXPECT_EQ(ov[1], b);
  EXPECT_TRUE(t.overlapping(kF, off(100), len(100)).empty());
  EXPECT_TRUE(t.overlapping(kF, off(999), len(1)).empty());
}

TEST(MappingTable, TrimLeftEdge) {
  MappingTable t;
  const EntryId id = t.insert(entry(100, 100, 1000, true));
  std::vector<std::pair<Offset, Bytes>> freed;
  t.trim(id, off(80), len(50), freed);  // cuts [100,130)
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0], std::make_pair(off(1000), len(30)));
  auto cov = t.coverage(kF, off(130), len(70));
  ASSERT_EQ(cov.size(), 1u);
  EXPECT_EQ(cov[0].log_off, off(1030));
  EXPECT_TRUE(t.coverage(kF, off(100), len(40)).empty());
  EXPECT_EQ(t.dirty_bytes(), len(70));
}

TEST(MappingTable, TrimInteriorSplitsEntry) {
  MappingTable t;
  const EntryId id =
      t.insert(entry(0, 100, 500, true, CacheClass::kFragment, 2.5));
  std::vector<std::pair<Offset, Bytes>> freed;
  t.trim(id, off(40), len(20), freed);
  ASSERT_EQ(freed.size(), 1u);
  EXPECT_EQ(freed[0].first, off(540));
  EXPECT_EQ(freed[0].second, len(20));
  EXPECT_EQ(t.entry_count(), 2u);
  auto left = t.coverage(kF, off(0), len(40));
  auto right = t.coverage(kF, off(60), len(40));
  ASSERT_EQ(left.size(), 1u);
  ASSERT_EQ(right.size(), 1u);
  EXPECT_EQ(left[0].log_off, off(500));
  EXPECT_EQ(right[0].log_off, off(560));
  EXPECT_TRUE(t.coverage(kF, off(40), len(20)).empty());
  // Split pieces keep class, dirty flag and return value.
  EXPECT_EQ(t.bytes_cached(CacheClass::kFragment), len(80));
  EXPECT_EQ(t.dirty_bytes(), len(80));
  EXPECT_NEAR(t.return_sum(CacheClass::kFragment), 5.0, 1e-9);
}

TEST(MappingTable, TrimWholeEntryRemovesIt) {
  MappingTable t;
  const EntryId id = t.insert(entry(0, 100, 500));
  std::vector<std::pair<Offset, Bytes>> freed;
  t.trim(id, off(0), len(100), freed);
  EXPECT_EQ(t.entry_count(), 0u);
  EXPECT_FALSE(t.contains(id));
}

TEST(MappingTable, TrimNoIntersectionIsNoop) {
  MappingTable t;
  const EntryId id = t.insert(entry(0, 100, 500));
  std::vector<std::pair<Offset, Bytes>> freed;
  t.trim(id, off(200), len(50), freed);
  EXPECT_TRUE(freed.empty());
  EXPECT_TRUE(t.contains(id));
}

TEST(MappingTable, LruEvictsOldestTouchedLast) {
  MappingTable t;
  const EntryId a = t.insert(entry(0, 10, 0));
  const EntryId b = t.insert(entry(100, 10, 100));
  const EntryId c = t.insert(entry(200, 10, 200));
  EXPECT_EQ(t.lru_victim(CacheClass::kRegular), a);
  t.touch(a);
  EXPECT_EQ(t.lru_victim(CacheClass::kRegular), b);
  t.erase(b);
  EXPECT_EQ(t.lru_victim(CacheClass::kRegular), c);
}

TEST(MappingTable, ClassesHaveIndependentLrus) {
  MappingTable t;
  const EntryId r = t.insert(entry(0, 10, 0, false, CacheClass::kRegular));
  const EntryId f =
      t.insert(entry(100, 10, 100, false, CacheClass::kFragment));
  EXPECT_EQ(t.lru_victim(CacheClass::kRegular), r);
  EXPECT_EQ(t.lru_victim(CacheClass::kFragment), f);
  EXPECT_EQ(t.entry_count(CacheClass::kRegular), 1u);
  EXPECT_EQ(t.entry_count(CacheClass::kFragment), 1u);
}

TEST(MappingTable, AccountingTracksBytesAndReturns) {
  MappingTable t;
  t.insert(entry(0, 30, 0, true, CacheClass::kFragment, 4.0));
  t.insert(entry(100, 70, 100, false, CacheClass::kRegular, 2.0));
  EXPECT_EQ(t.bytes_cached(), len(100));
  EXPECT_EQ(t.bytes_cached(CacheClass::kFragment), len(30));
  EXPECT_EQ(t.dirty_bytes(), len(30));
  EXPECT_DOUBLE_EQ(t.return_avg(CacheClass::kFragment), 4.0);
  EXPECT_DOUBLE_EQ(t.return_avg(CacheClass::kRegular), 2.0);
}

TEST(MappingTable, MarkCleanAndDirtyAdjustAccounting) {
  MappingTable t;
  const EntryId id = t.insert(entry(0, 50, 0, true));
  EXPECT_EQ(t.dirty_bytes(), len(50));
  t.mark_clean(id);
  EXPECT_EQ(t.dirty_bytes(), len(0));
  t.mark_clean(id);  // idempotent
  EXPECT_EQ(t.dirty_bytes(), len(0));
  t.mark_dirty(id);
  EXPECT_EQ(t.dirty_bytes(), len(50));
}

TEST(MappingTable, DirtyEntriesRespectsBudget) {
  MappingTable t;
  for (int i = 0; i < 10; ++i) {
    t.insert(entry(i * 100, 50, i * 100, true));
  }
  auto batch = t.dirty_entries(len(120));
  // 50-byte entries: budget 120 admits two (a third would exceed it).
  EXPECT_EQ(batch.size(), 2u);
  auto all = t.dirty_entries(len(1 << 30));
  EXPECT_EQ(all.size(), 10u);
}

TEST(MappingTable, DirtyEntriesSkipsClean) {
  MappingTable t;
  const EntryId a = t.insert(entry(0, 50, 0, true));
  t.insert(entry(100, 50, 100, false));
  t.mark_clean(a);
  EXPECT_TRUE(t.dirty_entries(len(1 << 30)).empty());
}

TEST(MappingTable, EntriesInLogRange) {
  MappingTable t;
  const EntryId a = t.insert(entry(0, 50, 0));
  const EntryId b = t.insert(entry(100, 50, 1000));
  const EntryId c = t.insert(entry(200, 50, 2000));
  auto in = t.entries_in_log_range(off(900), off(1100));
  ASSERT_EQ(in.size(), 1u);
  EXPECT_EQ(in[0], b);
  // Partial intersection from the left neighbour counts.
  auto in2 = t.entries_in_log_range(off(40), off(60));
  ASSERT_EQ(in2.size(), 1u);
  EXPECT_EQ(in2[0], a);
  EXPECT_TRUE(t.entries_in_log_range(off(3000), off(4000)).empty());
  (void)c;
}

TEST(MappingTable, EraseReturnsEntryAndCleansIndexes) {
  MappingTable t;
  const EntryId id = t.insert(entry(0, 50, 777, true));
  const CacheEntry e = t.erase(id);
  EXPECT_EQ(e.log_off, off(777));
  EXPECT_EQ(t.entry_count(), 0u);
  EXPECT_EQ(t.dirty_bytes(), len(0));
  EXPECT_TRUE(t.coverage(kF, off(0), len(50)).empty());
  EXPECT_TRUE(t.entries_in_log_range(off(0), off(10'000)).empty());
  // Space is reusable immediately.
  t.insert(entry(0, 50, 777));
  EXPECT_EQ(t.entry_count(), 1u);
}

TEST(MappingTable, MultipleFilesAreIsolated) {
  MappingTable t;
  t.insert(entry(0, 50, 0));
  CacheEntry g = entry(0, 50, 100);
  g.file = kG;
  t.insert(g);
  EXPECT_EQ(t.coverage(kF, off(0), len(50))[0].log_off, off(0));
  EXPECT_EQ(t.coverage(kG, off(0), len(50))[0].log_off, off(100));
  EXPECT_EQ(t.overlapping(kG, off(0), len(10)).size(), 1u);
}

TEST(MappingTable, StaleIdNeverAliasesReusedSlot) {
  MappingTable t;
  const auto slot = [](EntryId id) { return static_cast<std::uint32_t>(id); };
  const EntryId a = t.insert(entry(0, 100, 0, true));
  const EntryId b = t.insert(entry(1000, 300, 100));
  std::set<EntryId> seen = {a, b};
  t.erase(a);
  // An interior cut: b's two remainders are inserted under new ids.
  std::vector<std::pair<Offset, Bytes>> freed;
  t.trim(b, off(1100), len(100), freed);
  ASSERT_EQ(freed.size(), 1u);
  bool reused_a = false;
  bool reused_b = false;
  for (const EntryId id : t.all_entries()) {
    EXPECT_TRUE(seen.insert(id).second) << "id " << id << " handed out twice";
    reused_a = reused_a || slot(id) == slot(a);
    reused_b = reused_b || slot(id) == slot(b);
  }
  for (int i = 0; !(reused_a && reused_b); ++i) {
    ASSERT_LT(i, 16) << "freed slots never reused";
    const EntryId id = t.insert(entry(5000 + 200 * i, 100, 1000 + 100 * i));
    EXPECT_TRUE(seen.insert(id).second) << "id " << id << " handed out twice";
    reused_a = reused_a || slot(id) == slot(a);
    reused_b = reused_b || slot(id) == slot(b);
  }
  EXPECT_FALSE(t.contains(a));
  EXPECT_FALSE(t.contains(b));
  EXPECT_FALSE(t.contains(kNoEntry));
  for (const EntryId id : t.all_entries()) EXPECT_TRUE(t.contains(id));
}

// ------------------------------------------------- persistence / recovery ----

TEST(MappingTable, SaveLoadRoundTripsEntriesAndLru) {
  MappingTable t;
  const EntryId a = t.insert(entry(0, 30, 0, true, CacheClass::kRegular, 4.25));
  t.insert(entry(100, 50, 64, false, CacheClass::kFragment, 0.1));
  CacheEntry g = entry(300, 20, 128, true, CacheClass::kRegular, 1.0 / 3.0);
  g.file = kG;
  t.insert(g);
  t.touch(a);  // reorder the regular LRU so persistence must preserve it

  std::stringstream ss;
  t.save(ss);
  MappingTable r;
  ASSERT_TRUE(r.load(ss));

  EXPECT_EQ(r.entry_count(), t.entry_count());
  EXPECT_EQ(r.bytes_cached(), t.bytes_cached());
  EXPECT_EQ(r.dirty_bytes(), t.dirty_bytes());
  for (int c = 0; c < kNumClasses; ++c) {
    const auto klass = static_cast<CacheClass>(c);
    EXPECT_DOUBLE_EQ(r.return_sum(klass), t.return_sum(klass));
    // LRU order survives: compare by (file, offset) since ids are
    // per-instance.
    const auto lt = t.lru_order(klass), lr = r.lru_order(klass);
    ASSERT_EQ(lt.size(), lr.size());
    for (std::size_t i = 0; i < lt.size(); ++i) {
      EXPECT_EQ(t.get(lt[i]).file, r.get(lr[i]).file);
      EXPECT_EQ(t.get(lt[i]).file_off, r.get(lr[i]).file_off);
    }
  }
  EXPECT_EQ(r.coverage(kF, off(100), len(50))[0].log_off, off(64));
  EXPECT_EQ(r.coverage(kG, off(300), len(20))[0].log_off, off(128));
}

TEST(MappingTable, LoadRejectsMalformedAndOverlappingInput) {
  {
    MappingTable r;
    std::stringstream ss("not-a-table 0\n");
    EXPECT_FALSE(r.load(ss));
  }
  {
    // Two entries overlapping in file space must be rejected: a recovered
    // table with ambiguous coverage would serve stale bytes.
    MappingTable t;
    t.insert(entry(0, 100, 0));
    std::stringstream ss;
    t.save(ss);
    std::string text = ss.str();
    text.replace(text.find(" 1\n"), 3, " 2\n");  // fix the header count
    text += "1 50 100 4096 0 0 0\n";             // overlaps [0,100)
    std::stringstream bad(text);
    MappingTable r;
    EXPECT_FALSE(r.load(bad));
  }
  {
    MappingTable r;
    std::stringstream ss("ibridge-mapping-table-v1 1\n1 0 -5 0 0 0 0\n");
    EXPECT_FALSE(r.load(ss));  // non-positive length
  }
}

// Crash/recovery differential: persist the table in the middle of a live
// cache workload, reload it into a fresh table, and require (a) logical
// equality with the source at the persist point (table_digest) and (b)
// agreement with the SSD log's geometry (verify_recovered_table) — a
// recovered entry pointing outside the log, or straddling a segment, would
// serve garbage after restart.
TEST(MappingTableRecovery, MidWorkloadPersistReopenAgreesWithLog) {
  sim::Simulator sim;
  auto hp = storage::paper_hdd();
  hp.anticipation_ms = 0;
  storage::HddModel disk(sim, hp);
  storage::SsdModel ssd(sim, storage::paper_ssd());
  fsim::LocalFileSystem disk_fs(sim, disk, fsim::DataMode::kVerify);
  fsim::LocalFileSystem ssd_fs(sim, ssd, fsim::DataMode::kVerify);

  IBridgeConfig cfg;
  cfg.enabled = true;
  cfg.ssd_cache_bytes = 256 << 10;
  cfg.log_segment_bytes = 32 << 10;
  cfg.admission = AdmissionPolicy::kAlwaysSmall;  // admit aggressively
  storage::SeekProfile profile({{1000, 0.5}, {100'000, 1.5}});
  IBridgeCache cache(sim, cfg, ServerId{0}, disk_fs, ssd_fs, profile);
  cache.start();
  const fsim::FileId file = disk_fs.create("df", 4 << 20);

  sim::Rng rng(0xc0ffee);
  auto op = [&](bool write, std::int64_t o, std::int64_t l) {
    std::vector<std::byte> buf(static_cast<std::size_t>(l), std::byte{7});
    CacheRequest r{write ? storage::IoDirection::kWrite
                         : storage::IoDirection::kRead,
                   file, off(o), len(l),
                   /*fragment=*/l < cfg.fragment_threshold, {}, 0};
    bool done = false;
    auto t = [](IBridgeCache& c, CacheRequest req, std::vector<std::byte>& d,
                bool w, bool& flag) -> sim::Task<> {
      if (w) {
        co_await c.serve(std::move(req), d, {});
      } else {
        co_await c.serve(std::move(req), {}, d);
      }
      flag = true;
    }(cache, std::move(r), buf, write, done);
    t.start();
    sim.run_while_pending([&] { return done; });
  };

  std::stringstream persisted;
  std::uint64_t digest_at_persist = 0;
  for (int i = 0; i < 40; ++i) {
    const std::int64_t l = rng.uniform(1, 24) << 10;
    op(rng.chance(0.6), rng.uniform(0, (4 << 20) - l), l);
    if (i == 19) {
      cache.table().save(persisted);
      digest_at_persist = check::table_digest(cache.table());
    }
  }
  ASSERT_GT(cache.table().entry_count(), 0u);

  MappingTable recovered;
  ASSERT_TRUE(recovered.load(persisted));
  EXPECT_EQ(check::table_digest(recovered), digest_at_persist);
  const auto violations = check::verify_recovered_table(
      recovered, cache.log().capacity(), cache.log().segment_bytes());
  EXPECT_TRUE(violations.empty())
      << "first violation: " << (violations.empty() ? "" : violations[0]);
  cache.stop();
  sim.run();
}

// ------------------------- reference-model equivalence oracle -------------
// A deliberately naive mapping table — flat vectors, O(n) scans, explicit
// LRU vectors — that serves as the executable spec the slab-based
// MappingTable must match op for op.  The reference numbers its entries 1,
// 2, 3, ...; the table's ids are slot handles, so the randomized test
// below translates every reference id to the table id of the same entry
// while it runs both side by side through the full mutation surface.

struct RefTable {
  struct Rec {
    EntryId id;
    CacheEntry e;
  };
  std::vector<Rec> recs;                  // insertion order
  std::vector<EntryId> lru[kNumClasses];  // front = LRU, back = MRU
  EntryId next_id = 1;
  std::vector<EntryId> fresh;  // ids handed out since the test bound them

  static int idx(CacheClass c) { return static_cast<int>(c); }

  Rec& rec(EntryId id) {
    auto it = std::find_if(recs.begin(), recs.end(),
                           [id](const Rec& r) { return r.id == id; });
    EXPECT_NE(it, recs.end());
    return *it;
  }

  EntryId insert(const CacheEntry& e) {
    const EntryId id = next_id++;
    recs.push_back({id, e});
    lru[idx(e.klass)].push_back(id);
    fresh.push_back(id);
    return id;
  }

  CacheEntry erase(EntryId id) {
    const CacheEntry e = rec(id).e;
    auto& l = lru[idx(e.klass)];
    l.erase(std::find(l.begin(), l.end(), id));
    recs.erase(std::find_if(recs.begin(), recs.end(),
                            [id](const Rec& r) { return r.id == id; }));
    return e;
  }

  void touch(EntryId id) {
    auto& l = lru[idx(rec(id).e.klass)];
    l.erase(std::find(l.begin(), l.end(), id));
    l.push_back(id);
  }

  void set_dirty(EntryId id, bool dirty) { rec(id).e.dirty = dirty; }

  std::vector<Rec> of_file_sorted(fsim::FileId f) const {
    std::vector<Rec> v;
    for (const Rec& r : recs) {
      if (r.e.file == f) v.push_back(r);
    }
    std::sort(v.begin(), v.end(), [](const Rec& a, const Rec& b) {
      return a.e.file_off < b.e.file_off;
    });
    return v;
  }

  std::vector<LogSlice> coverage(fsim::FileId f, Offset o, Bytes l) const {
    const auto v = of_file_sorted(f);
    std::vector<LogSlice> out;
    Offset pos = o;
    const Offset end = o + l;
    while (pos < end) {
      const Rec* cur = nullptr;
      for (const Rec& r : v) {
        if (r.e.file_off <= pos && pos < r.e.file_end()) {
          cur = &r;
          break;
        }
      }
      if (cur == nullptr) return {};  // gap
      const Bytes take = std::min(end, cur->e.file_end()) - pos;
      out.push_back(
          {cur->id, pos, cur->e.log_off + (pos - cur->e.file_off), take});
      pos += take;
    }
    return out;
  }

  std::vector<EntryId> overlapping(fsim::FileId f, Offset o, Bytes l) const {
    std::vector<EntryId> out;
    for (const Rec& r : of_file_sorted(f)) {
      if (r.e.file_off < o + l && r.e.file_end() > o) out.push_back(r.id);
    }
    return out;
  }

  void trim(EntryId id, Offset o, Bytes l,
            std::vector<std::pair<Offset, Bytes>>& freed) {
    const CacheEntry e = rec(id).e;
    const Offset cut_lo = std::max(o, e.file_off);
    const Offset cut_hi = std::min(o + l, e.file_end());
    if (cut_lo >= cut_hi) return;
    freed.emplace_back(e.log_off + (cut_lo - e.file_off), cut_hi - cut_lo);
    erase(id);
    if (cut_lo > e.file_off) {
      CacheEntry left = e;
      left.length = cut_lo - e.file_off;
      insert(left);
    }
    if (cut_hi < e.file_end()) {
      CacheEntry right = e;
      right.file_off = cut_hi;
      right.log_off = e.log_off + (cut_hi - e.file_off);
      right.length = e.file_end() - cut_hi;
      insert(right);
    }
  }

  std::vector<EntryId> dirty_entries(Bytes max_bytes) const {
    std::vector<Rec> v = recs;
    std::sort(v.begin(), v.end(), [](const Rec& a, const Rec& b) {
      if (a.e.file != b.e.file) return a.e.file < b.e.file;
      return a.e.file_off < b.e.file_off;
    });
    std::vector<EntryId> out;
    Bytes budget = max_bytes;
    for (const Rec& r : v) {
      if (!r.e.dirty) continue;
      if (budget - r.e.length < Bytes::zero() && !out.empty()) return out;
      out.push_back(r.id);
      budget -= r.e.length;
      if (budget <= Bytes::zero()) return out;
    }
    return out;
  }

  std::vector<EntryId> in_log_range(Offset lo, Offset hi) const {
    std::vector<Rec> v = recs;
    std::sort(v.begin(), v.end(), [](const Rec& a, const Rec& b) {
      return a.e.log_off < b.e.log_off;
    });
    std::vector<EntryId> out;
    for (const Rec& r : v) {
      if (r.e.log_off < hi && r.e.log_off + r.e.length > lo) {
        out.push_back(r.id);
      }
    }
    return out;
  }

  Bytes bytes_cached(CacheClass c) const {
    Bytes total;
    for (const Rec& r : recs) {
      if (r.e.klass == c) total += r.e.length;
    }
    return total;
  }
  Bytes dirty_bytes() const {
    Bytes total;
    for (const Rec& r : recs) {
      if (r.e.dirty) total += r.e.length;
    }
    return total;
  }
};

void expect_entry_eq(const CacheEntry& a, const CacheEntry& b) {
  EXPECT_EQ(a.file, b.file);
  EXPECT_EQ(a.file_off, b.file_off);
  EXPECT_EQ(a.length, b.length);
  EXPECT_EQ(a.log_off, b.log_off);
  EXPECT_EQ(a.dirty, b.dirty);
  EXPECT_EQ(a.klass, b.klass);
  EXPECT_EQ(a.ret_ms, b.ret_ms);
}

void expect_slices_eq(const std::vector<LogSlice>& a,
                      const std::vector<LogSlice>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].entry, b[i].entry);
    EXPECT_EQ(a[i].file_off, b[i].file_off);
    EXPECT_EQ(a[i].log_off, b[i].log_off);
    EXPECT_EQ(a[i].length, b[i].length);
  }
}

TEST(MappingTableEquivalence, MatchesNaiveReferenceUnderRandomChurn) {
  MappingTable t;
  RefTable ref;
  sim::Rng rng(0x0a11e9e5);
  std::int64_t next_log = 0;
  constexpr std::int64_t kSlot = 1 << 10;
  const auto rand_file = [&] {
    return static_cast<fsim::FileId>(1 + rng.below(3));
  };
  const auto rand_range = [&](Offset& o, Bytes& l) {
    o = off(static_cast<std::int64_t>(rng.below(256)) * kSlot);
    l = len((1 + static_cast<std::int64_t>(rng.below(6))) * kSlot);
  };
  const auto rand_id = [&] {
    return ref.recs[static_cast<std::size_t>(rng.below(ref.recs.size()))].id;
  };

  // Reference id -> table id, filled at each insert; every table id must be
  // new (an id handed out twice would alias a stale handle).
  std::map<EntryId, EntryId> to_t;
  std::set<EntryId> seen;
  const auto bind = [&](EntryId ref_id, EntryId t_id) {
    EXPECT_TRUE(seen.insert(t_id).second)
        << "table id " << t_id << " handed out twice";
    to_t[ref_id] = t_id;
  };
  // Bind the reference's trim remainders to the table entries at the same
  // place (entries never overlap, so the range names exactly one).
  const auto bind_fresh = [&] {
    for (const EntryId ref_id : ref.fresh) {
      const CacheEntry& e = ref.rec(ref_id).e;
      const auto ids = t.overlapping(e.file, e.file_off, e.length);
      ASSERT_EQ(ids.size(), 1u);
      expect_entry_eq(t.get(ids[0]), e);
      bind(ref_id, ids[0]);
    }
    ref.fresh.clear();
  };
  const auto tr = [&](const std::vector<EntryId>& ref_ids) {
    std::vector<EntryId> out;
    for (const EntryId id : ref_ids) out.push_back(to_t.at(id));
    return out;
  };

  for (int step = 0; step < 3000; ++step) {
    const auto op = rng.below(100);
    if (op < 35) {
      CacheEntry e;
      e.file = rand_file();
      rand_range(e.file_off, e.length);
      e.log_off = off(next_log);
      e.dirty = rng.chance(0.5);
      e.klass = rng.chance(0.3) ? CacheClass::kFragment : CacheClass::kRegular;
      e.ret_ms = 0.125 * static_cast<double>(rng.below(64));
      if (!ref.overlapping(e.file, e.file_off, e.length).empty()) continue;
      next_log += e.length.count();
      const EntryId t_id = t.insert(e);
      bind(ref.insert(e), t_id);
      ref.fresh.clear();
    } else if (op < 50) {
      const auto f = rand_file();
      Offset o;
      Bytes l;
      rand_range(o, l);
      const auto want = ref.overlapping(f, o, l);
      ASSERT_EQ(t.overlapping(f, o, l), tr(want)) << "step " << step;
      std::vector<std::pair<Offset, Bytes>> freed_t, freed_r;
      for (const EntryId id : want) {
        t.trim(to_t.at(id), o, l, freed_t);
        ref.trim(id, o, l, freed_r);
        EXPECT_FALSE(t.contains(to_t.at(id))) << "step " << step;
      }
      ASSERT_EQ(freed_t, freed_r) << "step " << step;
      bind_fresh();
    } else if (op < 60 && !ref.recs.empty()) {
      const EntryId id = rand_id();
      t.touch(to_t.at(id));
      ref.touch(id);
    } else if (op < 68 && !ref.recs.empty()) {
      const EntryId id = rand_id();
      const CacheEntry got = t.erase(to_t.at(id));
      expect_entry_eq(got, ref.erase(id));
      EXPECT_FALSE(t.contains(to_t.at(id))) << "step " << step;
    } else if (op < 76 && !ref.recs.empty()) {
      const EntryId id = rand_id();
      const bool dirty = rng.chance(0.5);
      if (dirty) {
        t.mark_dirty(to_t.at(id));
      } else {
        t.mark_clean(to_t.at(id));
      }
      ref.set_dirty(id, dirty);
    } else if (op < 84) {
      const auto f = rand_file();
      Offset o;
      Bytes l;
      rand_range(o, l);
      auto want = ref.coverage(f, o, l);
      for (LogSlice& sl : want) sl.entry = to_t.at(sl.entry);
      expect_slices_eq(t.coverage(f, o, l), want);
    } else if (op < 90) {
      const Bytes budget =
          len((1 + static_cast<std::int64_t>(rng.below(12))) * kSlot);
      ASSERT_EQ(t.dirty_entries(budget), tr(ref.dirty_entries(budget)))
          << "step " << step;
    } else if (op < 96) {
      const Offset b = off(static_cast<std::int64_t>(rng.below(512)) * kSlot);
      const Offset e2 =
          b + len((1 + static_cast<std::int64_t>(rng.below(32))) * kSlot);
      ASSERT_EQ(t.entries_in_log_range(b, e2), tr(ref.in_log_range(b, e2)))
          << "step " << step;
    } else {
      for (const CacheClass c : {CacheClass::kRegular, CacheClass::kFragment}) {
        ASSERT_EQ(t.lru_order(c), tr(ref.lru[RefTable::idx(c)]))
            << "step " << step;
        ASSERT_EQ(t.bytes_cached(c), ref.bytes_cached(c)) << "step " << step;
        ASSERT_EQ(t.entry_count(c), ref.lru[RefTable::idx(c)].size());
      }
      ASSERT_EQ(t.dirty_bytes(), ref.dirty_bytes()) << "step " << step;
      ASSERT_EQ(t.entry_count(), ref.recs.size()) << "step " << step;
    }

    if (step % 500 == 499) {
      // Save/load round trip: ids are reassigned on load, so compare entry
      // *content* in per-class LRU order (recency must survive exactly),
      // plus the id-independent digest.
      std::stringstream ss;
      t.save(ss);
      MappingTable loaded;
      ASSERT_TRUE(loaded.load(ss)) << "step " << step;
      EXPECT_EQ(check::table_digest(loaded), check::table_digest(t));
      for (const CacheClass c :
           {CacheClass::kRegular, CacheClass::kFragment}) {
        const auto a = t.lru_order(c);
        const auto b = loaded.lru_order(c);
        ASSERT_EQ(a.size(), b.size()) << "step " << step;
        for (std::size_t i = 0; i < a.size(); ++i) {
          expect_entry_eq(loaded.get(b[i]), t.get(a[i]));
        }
      }
    }
  }
  ASSERT_GT(ref.recs.size(), 0u);
}

}  // namespace
}  // namespace ibridge::core
