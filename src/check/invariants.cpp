#include "check/invariants.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <sstream>

#include "check/digest.hpp"

namespace ibridge::check {

using core::CacheClass;
using core::CacheEntry;
using core::EntryId;
using core::MappingTable;
using sim::Bytes;
using sim::Offset;

namespace {

// Relative tolerance for the incrementally maintained return sums (they
// accumulate fp error against a fresh recompute).
bool near(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max({1.0, std::abs(a), std::abs(b)});
}

void fail(std::vector<std::string>& out, const std::string& msg) {
  out.push_back(msg);
}

std::string entry_str(EntryId id, const CacheEntry& e) {
  std::ostringstream ss;
  ss << "entry " << id << " (file " << e.file << " [" << e.file_off.value()
     << "," << e.file_end().value() << ") log [" << e.log_off.value() << ","
     << (e.log_off + e.length).value() << ") " << to_string(e.klass)
     << (e.dirty ? " dirty" : " clean") << ")";
  return ss.str();
}

}  // namespace

std::vector<std::string> verify_table(const MappingTable& t) {
  std::vector<std::string> out;

  const auto ids = t.all_entries();
  if (ids.size() != t.entry_count()) {
    fail(out, "all_entries()/entry_count() disagree: " +
                  std::to_string(ids.size()) + " vs " +
                  std::to_string(t.entry_count()));
  }

  // Per-class LRU lists must partition the entries and reproduce the
  // byte / return accounting.
  std::size_t lru_total = 0;
  for (int ci = 0; ci < core::kNumClasses; ++ci) {
    const auto c = static_cast<CacheClass>(ci);
    const auto order = t.lru_order(c);
    lru_total += order.size();
    if (order.size() != t.entry_count(c)) {
      fail(out, std::string("LRU list size mismatch for class ") +
                    to_string(c));
    }
    Bytes bytes = Bytes::zero();
    double ret = 0.0;
    for (EntryId id : order) {
      if (!t.contains(id)) {
        fail(out, "LRU list references missing entry " + std::to_string(id));
        continue;
      }
      const CacheEntry& e = t.get(id);
      if (e.klass != c) {
        fail(out, entry_str(id, e) + " filed in the wrong class LRU");
      }
      bytes += e.length;
      ret += e.ret_ms;
    }
    if (bytes != t.bytes_cached(c)) {
      fail(out, std::string("bytes_cached(") + to_string(c) +
                    ") diverged: recomputed " + std::to_string(bytes.count()) +
                    " vs reported " +
                    std::to_string(t.bytes_cached(c).count()));
    }
    if (!near(ret, t.return_sum(c))) {
      fail(out, std::string("return_sum(") + to_string(c) + ") diverged");
    }
  }
  if (lru_total != t.entry_count()) {
    fail(out, "LRU lists do not partition the entry set");
  }

  // Entry sanity, dirty accounting, per-file non-overlap (all_entries is
  // file/offset ordered), and coverage round trip.
  Bytes dirty = Bytes::zero();
  std::vector<std::pair<Offset, Bytes>> log_ranges;
  log_ranges.reserve(ids.size());
  const CacheEntry* prev = nullptr;
  for (EntryId id : ids) {
    const CacheEntry& e = t.get(id);
    if (e.length <= Bytes::zero() || e.file == fsim::kInvalidFile ||
        e.log_off < Offset::zero()) {
      fail(out, entry_str(id, e) + " is malformed");
      continue;
    }
    if (e.dirty) dirty += e.length;
    log_ranges.emplace_back(e.log_off, e.length);
    if (prev && prev->file == e.file && prev->file_end() > e.file_off) {
      fail(out, entry_str(id, e) + " overlaps its file predecessor");
    }
    prev = &e;

    const auto cov = t.coverage(e.file, e.file_off, e.length);
    if (cov.size() != 1 || cov[0].entry != id || cov[0].log_off != e.log_off ||
        cov[0].length != e.length) {
      fail(out, entry_str(id, e) + " does not round-trip through coverage()");
    }
  }
  if (dirty != t.dirty_bytes()) {
    fail(out, "dirty_bytes diverged: recomputed " +
                  std::to_string(dirty.count()) + " vs reported " +
                  std::to_string(t.dirty_bytes().count()));
  }
  if (t.dirty_bytes() < Bytes::zero() ||
      t.dirty_bytes() > t.bytes_cached()) {
    fail(out, "dirty_bytes outside [0, bytes_cached]");
  }

  // Log ranges never overlap.
  std::sort(log_ranges.begin(), log_ranges.end());
  for (std::size_t i = 1; i < log_ranges.size(); ++i) {
    if (log_ranges[i - 1].first + log_ranges[i - 1].second >
        log_ranges[i].first) {
      fail(out, "log ranges overlap at log offset " +
                    std::to_string(log_ranges[i].first.value()));
    }
  }

  return out;
}

std::vector<std::string> verify_cache(const core::IBridgeCache& c,
                                      bool quiescent) {
  std::vector<std::string> out = verify_table(c.table());

  const core::MappingTable& t = c.table();
  const core::SsdLog& log = c.log();

  // Byte conservation between table and log.  In-flight admissions and
  // background staging hold log space before their table insert, so the
  // running invariant is <=; at quiescence they must agree exactly.
  if (t.bytes_cached() > log.live_bytes()) {
    fail(out, "table claims " + std::to_string(t.bytes_cached().count()) +
                  " bytes but the log holds only " +
                  std::to_string(log.live_bytes().count()));
  }
  if (quiescent && t.bytes_cached() != log.live_bytes()) {
    fail(out, "table/log bytes diverged at quiescence: " +
                  std::to_string(t.bytes_cached().count()) + " vs " +
                  std::to_string(log.live_bytes().count()));
  }
  if (log.live_bytes() < Bytes::zero() ||
      log.live_bytes() > log.capacity()) {
    fail(out, "log live bytes outside [0, capacity]");
  }
  // Free segments hold no live data, so live bytes must fit the rest.
  const Bytes non_free_capacity =
      log.capacity() -
      static_cast<std::int64_t>(log.free_segment_count()) *
          log.segment_bytes();
  if (log.live_bytes() > non_free_capacity) {
    fail(out, "log live bytes exceed non-free segment capacity");
  }

  // Per-segment agreement: the summed lengths of the entries mapped into a
  // segment never exceed its live count (equality at quiescence), and no
  // entry straddles a segment boundary (append never splits).
  const Bytes seg_bytes = log.segment_bytes();
  for (int seg = 0; seg < log.segment_count(); ++seg) {
    const auto [b, e] = log.segment_range(seg);
    Bytes mapped = Bytes::zero();
    for (EntryId id : t.entries_in_log_range(b, e)) {
      const CacheEntry& ent = t.get(id);
      if (ent.log_off / seg_bytes !=
          (ent.log_off + ent.length - Bytes{1}) / seg_bytes) {
        fail(out, entry_str(id, ent) + " straddles a log segment boundary");
      }
      mapped +=
          std::min(ent.log_off + ent.length, e) - std::max(ent.log_off, b);
    }
    if (mapped > log.segment_live(seg)) {
      fail(out, "segment " + std::to_string(seg) + " maps " +
                    std::to_string(mapped.count()) +
                    " table bytes but reports " +
                    std::to_string(log.segment_live(seg).count()) + " live");
    }
    if (quiescent && mapped != log.segment_live(seg)) {
      fail(out, "segment " + std::to_string(seg) +
                    " live count diverged at quiescence");
    }
  }

  // Entries must fit the log file.
  for (EntryId id : t.all_entries()) {
    const CacheEntry& ent = t.get(id);
    if (ent.log_off + ent.length > Offset::zero() + log.capacity()) {
      fail(out, entry_str(id, ent) + " maps past the log capacity");
    }
  }

  // Partition: the two class quotas tile the capacity exactly.
  const auto& part = c.partition();
  const Bytes qr = part.quota(t, CacheClass::kRegular);
  const Bytes qf = part.quota(t, CacheClass::kFragment);
  if (qr < Bytes::zero() || qf < Bytes::zero() || qr > part.capacity() ||
      qf > part.capacity()) {
    fail(out, "partition quota outside [0, capacity]");
  }
  if (qr + qf != part.capacity()) {
    fail(out, "partition quotas do not tile the capacity: " +
                  std::to_string(qr.count()) + " + " +
                  std::to_string(qf.count()) + " != " +
                  std::to_string(part.capacity().count()));
  }

  return out;
}

std::vector<std::string> verify_recovered_table(const MappingTable& t,
                                                Bytes log_capacity,
                                                Bytes segment_bytes) {
  std::vector<std::string> out = verify_table(t);
  for (EntryId id : t.all_entries()) {
    const CacheEntry& e = t.get(id);
    if (e.log_off + e.length > Offset::zero() + log_capacity) {
      fail(out, entry_str(id, e) + " maps past the recovered log capacity");
    }
    if (segment_bytes > Bytes::zero() &&
        e.log_off / segment_bytes !=
            (e.log_off + e.length - Bytes{1}) / segment_bytes) {
      fail(out, entry_str(id, e) + " straddles a recovered segment boundary");
    }
  }
  return out;
}

std::uint64_t table_digest(const MappingTable& t) {
  Digest d;
  for (EntryId id : t.all_entries()) {
    const CacheEntry& e = t.get(id);
    d.update_u64(e.file)
        .update_i64(e.file_off.value())
        .update_i64(e.length.count())
        .update_i64(e.log_off.value())
        .update_u64(e.dirty ? 1 : 0)
        .update_u64(static_cast<std::uint64_t>(e.klass));
    double ret = e.ret_ms;
    std::uint64_t bits;
    std::memcpy(&bits, &ret, sizeof bits);
    d.update_u64(bits);
  }
  // LRU order matters for recovery equivalence (it decides future victims),
  // but ids are assigned per-instance: fold in each entry's identity by
  // content position instead of raw id.
  for (int ci = 0; ci < core::kNumClasses; ++ci) {
    d.update_u64(0x4c525500ULL + static_cast<std::uint64_t>(ci));  // "LRU"+class
    for (EntryId id : t.lru_order(static_cast<CacheClass>(ci))) {
      const CacheEntry& e = t.get(id);
      d.update_u64(e.file)
          .update_i64(e.file_off.value())
          .update_i64(e.length.count());
    }
  }
  d.update_i64(t.bytes_cached().count())
      .update_i64(t.dirty_bytes().count())
      .update_u64(t.entry_count());
  return d.value();
}

void InvariantOracle::on_check(const core::IBridgeCache& cache,
                               const char* where) {
  ++checks_;
  if (failures_.size() >= kMaxFailures) return;
  std::vector<std::string> violations = verify_cache(cache);
  const void* clock = &cache.simulator();
  const std::int64_t now_ns = cache.simulator().now().ns();

  // Monotone simulator time across every observed step of one clock domain.
  auto [it, fresh] = last_now_ns_.try_emplace(clock, now_ns);
  if (!fresh) {
    if (now_ns < it->second) {
      failures_.push_back(std::string(where) +
                          ": simulator time ran backwards");
    }
    it->second = now_ns;
  }

  for (auto& v : violations) {
    if (failures_.size() >= kMaxFailures) break;
    failures_.push_back(std::string(where) + ": " + std::move(v));
  }
}

}  // namespace ibridge::check
