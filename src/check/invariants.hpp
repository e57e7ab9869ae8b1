// SimCheck pillar 2: the invariant oracle.
//
// Pure audit functions over the iBridge data structures, plus an observer
// (InvariantOracle) that hooks into IBridgeCache via core::CacheObserver and
// re-audits after every state-changing step.  Checked invariants:
//
//   table:  per-class LRU lists partition the entries; byte / dirty-byte /
//           return-sum accounting matches a full recompute; per-file ranges
//           never overlap; log ranges never overlap; coverage() round-trips
//           every entry.
//   cache:  table bytes <= log live bytes (equal at quiescence — in-flight
//           admissions hold log space before their table insert); per-log-
//           segment live bytes match the entries mapped into the segment;
//           entries never straddle a segment boundary; log occupancy fits
//           the configured capacity; partition quotas tile the capacity.
//   time:   simulator time is monotone across observer callbacks.
//
// All audits report violations as strings instead of aborting, so the fuzz
// shrinker can use "oracle failed" as a reproducible predicate.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/cache.hpp"
#include "core/mapping_table.hpp"
#include "sim/units.hpp"
#include "core/observer.hpp"

namespace ibridge::check {

/// Audit a mapping table's internal consistency.  Returns one message per
/// violation (empty == healthy).
std::vector<std::string> verify_table(const core::MappingTable& t);

/// Audit a live cache: the table audit plus table/log/partition agreement.
/// With `quiescent`, additionally require exact table/log byte equality
/// (only valid when no admission or staging is in flight).
std::vector<std::string> verify_cache(const core::IBridgeCache& c,
                                      bool quiescent = false);

/// Mapping/log agreement for a table reloaded from persistent storage:
/// entries must fit the log geometry (within capacity, not straddling a
/// segment boundary) on top of the plain table audit.
std::vector<std::string> verify_recovered_table(const core::MappingTable& t,
                                                sim::Bytes log_capacity,
                                                sim::Bytes segment_bytes);

/// Digest of a table's full logical content: entries in file order, LRU
/// order per class, and the accounting totals.  Two tables with equal
/// digests are logically identical — the recovery-equivalence check.
std::uint64_t table_digest(const core::MappingTable& t);

/// CacheObserver that audits the cache after every step and records
/// violations (capped; the first failure is what matters for shrinking).
///
/// One oracle is installed on every server's cache, so on a sharded
/// cluster it observes several clocks: the monotone-time audit is keyed per
/// simulator (shard clocks advance independently inside a window, so a
/// global ordering across shards would be a false positive).  On the
/// classic core every cache shares one simulator — a single key — which
/// is exactly the old global check.
class InvariantOracle : public core::CacheObserver {
 public:
  void on_check(const core::IBridgeCache& cache, const char* where) override;

  bool ok() const { return failures_.empty(); }
  const std::vector<std::string>& failures() const { return failures_; }
  std::uint64_t checks_run() const { return checks_; }

  void reset() {
    failures_.clear();
    checks_ = 0;
    last_now_ns_.clear();
  }

 private:
  static constexpr std::size_t kMaxFailures = 16;

  std::vector<std::string> failures_;
  std::uint64_t checks_ = 0;
  /// Last observed time per simulator (clock domain).  Lookup-only — the
  /// map is never iterated, so address ordering cannot leak into results.
  // lint: pointer-key-ok (keyed for point lookups only; never iterated)
  std::map<const void*, std::int64_t> last_now_ns_;
};

}  // namespace ibridge::check
