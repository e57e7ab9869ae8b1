// Tests for core::SortedBlocks, the mapping table's ordered index: a seeded
// differential run against std::map under churn large enough that blocks
// split, merge, empty and get recycled, plus prev/next edge cases.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <utility>
#include <vector>

#include "core/sorted_blocks.hpp"
#include "sim/rng.hpp"

namespace ibridge::core {
namespace {

// Shaped like the mapping table's (file, offset) key.
using FileKey = std::pair<std::uint32_t, std::int64_t>;

template <typename Key>
using Ref = std::map<Key, std::uint32_t>;

// Walk the index forwards with next() and backwards with prev(), comparing
// every key and value with the reference.
template <typename Key>
void expect_same(const SortedBlocks<Key>& sb, const Ref<Key>& ref) {
  ASSERT_EQ(sb.size(), ref.size());
  auto p = sb.begin();
  for (const auto& [k, v] : ref) {
    ASSERT_FALSE(p == sb.end());
    ASSERT_EQ(sb.key(p), k);
    ASSERT_EQ(sb.value(p), v);
    p = sb.next(p);
  }
  ASSERT_TRUE(p == sb.end());
  for (auto it = ref.rbegin(); it != ref.rend(); ++it) {
    p = sb.prev(p);
    ASSERT_EQ(sb.key(p), it->first);
    ASSERT_EQ(sb.value(p), it->second);
  }
  ASSERT_TRUE(p == sb.begin());
}

// upper_bound(k) must name the same key as std::map's, and its neighbours
// must match the reference's across block boundaries.
template <typename Key>
void expect_upper_bound(const SortedBlocks<Key>& sb, const Ref<Key>& ref,
                        const Key& k) {
  const auto want = ref.upper_bound(k);
  const auto got = sb.upper_bound(k);
  if (want == ref.end()) {
    ASSERT_TRUE(got == sb.end());
  } else {
    ASSERT_FALSE(got == sb.end());
    ASSERT_EQ(sb.key(got), want->first);
    const auto nx = sb.next(got);
    if (std::next(want) == ref.end()) {
      ASSERT_TRUE(nx == sb.end());
    } else {
      ASSERT_EQ(sb.key(nx), std::next(want)->first);
    }
  }
  if (want == ref.begin()) {
    ASSERT_TRUE(got == sb.begin());
  } else {
    ASSERT_EQ(sb.key(sb.prev(got)), std::prev(want)->first);
  }
}

TEST(SortedBlocks, EmptyIndex) {
  SortedBlocks<std::int64_t> sb;
  EXPECT_EQ(sb.size(), 0u);
  EXPECT_EQ(sb.block_count(), 0u);
  EXPECT_TRUE(sb.begin() == sb.end());
  EXPECT_TRUE(sb.upper_bound(0) == sb.end());
  EXPECT_TRUE(sb.find(0) == sb.end());
  EXPECT_FALSE(sb.erase(0));
}

TEST(SortedBlocks, SingleKeyIndex) {
  SortedBlocks<std::int64_t> sb;
  ASSERT_TRUE(sb.insert(10, 7));
  EXPECT_FALSE(sb.insert(10, 8));  // duplicate keys are rejected
  EXPECT_EQ(sb.size(), 1u);
  const auto p = sb.begin();
  EXPECT_EQ(sb.key(p), 10);
  EXPECT_EQ(sb.value(p), 7u);
  EXPECT_TRUE(sb.next(p) == sb.end());
  EXPECT_TRUE(sb.prev(sb.end()) == p);
  EXPECT_TRUE(sb.upper_bound(9) == p);
  EXPECT_TRUE(sb.upper_bound(10) == sb.end());
  EXPECT_TRUE(sb.find(10) == p);
  EXPECT_TRUE(sb.find(11) == sb.end());
  EXPECT_TRUE(sb.erase(10));
  EXPECT_EQ(sb.size(), 0u);
  EXPECT_EQ(sb.block_count(), 0u);
  EXPECT_TRUE(sb.begin() == sb.end());
}

TEST(SortedBlocks, PrevNextCrossBlockBoundaries) {
  SortedBlocks<std::int64_t> sb;
  Ref<std::int64_t> ref;
  constexpr std::int64_t kKeys = 5 * SortedBlocks<std::int64_t>::kBlockCap;
  for (std::int64_t k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(sb.insert(2 * k, static_cast<std::uint32_t>(k)));
    ref.emplace(2 * k, static_cast<std::uint32_t>(k));
  }
  ASSERT_GT(sb.block_count(), 4u);
  expect_same(sb, ref);
  // Every key, every gap, and both ends.
  for (std::int64_t k = -1; k <= 2 * kKeys; ++k) {
    expect_upper_bound(sb, ref, k);
  }
}

// Fill in one key order, drain in another, and compare with std::map along
// the way; then refill, which must run on the recycled blocks alone.
void fill_and_drain(const std::vector<std::int64_t>& fill,
                    const std::vector<std::int64_t>& drain) {
  SortedBlocks<std::int64_t> sb;
  Ref<std::int64_t> ref;
  std::uint32_t v = 0;
  for (std::size_t i = 0; i < fill.size(); ++i) {
    ASSERT_TRUE(sb.insert(fill[i], v));
    ref.emplace(fill[i], v++);
    if (i % 997 == 0) expect_same(sb, ref);
  }
  expect_same(sb, ref);
  const std::size_t peak_blocks = sb.block_count();
  const std::size_t storage = sb.storage_blocks();
  for (std::size_t i = 0; i < drain.size(); ++i) {
    ASSERT_TRUE(sb.erase(drain[i]));
    ref.erase(drain[i]);
    if (i % 997 == 0) {
      expect_same(sb, ref);
      // Merging keeps blocks from going sparse as the index drains.
      ASSERT_LE(sb.block_count(),
                1 + 4 * ref.size() / SortedBlocks<std::int64_t>::kBlockCap);
    }
  }
  EXPECT_EQ(sb.size(), 0u);
  EXPECT_EQ(sb.block_count(), 0u);
  for (const std::int64_t k : fill) ASSERT_TRUE(sb.insert(k, 0));
  EXPECT_EQ(sb.block_count(), peak_blocks);
  EXPECT_EQ(sb.storage_blocks(), storage);
}

TEST(SortedBlocks, AscendingDescendingAndRandomFillsMatchStdMap) {
  constexpr std::int64_t kKeys = 12'000;
  std::vector<std::int64_t> up, down, shuffled;
  for (std::int64_t k = 0; k < kKeys; ++k) up.push_back(3 * k);
  down.assign(up.rbegin(), up.rend());
  shuffled = up;
  sim::Rng rng(0x5b10c5);
  for (std::size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.below(i + 1)]);
  }
  for (const auto* fill : {&up, &down, &shuffled}) {
    for (const auto* drain : {&up, &down, &shuffled}) {
      fill_and_drain(*fill, *drain);
    }
  }
}

TEST(SortedBlocks, MatchesStdMapUnderRandomChurn) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    sim::Rng rng(seed);
    SortedBlocks<FileKey> sb;
    Ref<FileKey> ref;
    const auto rand_key = [&] {
      return FileKey{static_cast<std::uint32_t>(1 + rng.below(3)),
                     static_cast<std::int64_t>(rng.below(40'000)) * 512};
    };
    std::uint32_t next_val = 0;
    std::size_t peak = 0;
    for (int step = 0; step < 80'000; ++step) {
      // Grow to ~14k live keys, then churn around that mark.
      const auto op = rng.below(100);
      const bool grow = ref.size() < 14'000;
      if (op < (grow ? 70u : 40u)) {
        const FileKey k = rand_key();
        const bool fresh = ref.emplace(k, next_val).second;
        ASSERT_EQ(sb.insert(k, next_val), fresh) << "step " << step;
        ++next_val;
      } else if (op < 80) {
        // Erase a present key (the first at or after a random point) or,
        // when that runs off the end, a probably-absent one.
        const FileKey probe = rand_key();
        auto it = ref.lower_bound(probe);
        const FileKey k = it == ref.end() ? probe : it->first;
        ASSERT_EQ(sb.erase(k), ref.erase(k) == 1) << "step " << step;
      } else if (op < 90) {
        const FileKey k = rand_key();
        const auto got = sb.find(k);
        const auto want = ref.find(k);
        if (want == ref.end()) {
          ASSERT_TRUE(got == sb.end()) << "step " << step;
        } else {
          ASSERT_FALSE(got == sb.end()) << "step " << step;
          ASSERT_EQ(sb.value(got), want->second) << "step " << step;
        }
      } else {
        expect_upper_bound(sb, ref, rand_key());
      }
      peak = std::max(peak, ref.size());
      if (step % 8000 == 7999) expect_same(sb, ref);
    }
    EXPECT_GE(peak, 10'000u);
    expect_same(sb, ref);
  }
}

}  // namespace
}  // namespace ibridge::core
