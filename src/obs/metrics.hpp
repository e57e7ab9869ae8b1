// Unified registry of named counters, gauges, and histograms.
//
// Replaces the ad-hoc per-bench meters: components keep their cheap native
// counters (CacheStats, BlockDevice byte totals, NIC totals) and
// cluster::Cluster::collect_metrics() publishes them all into one registry
// under a uniform naming scheme, which benches print and the time-series
// sampler snapshots to CSV.
//
// Naming scheme (see docs/OBSERVABILITY.md):
//   <subsystem>.<metric>[.<class>]          cluster-wide aggregate
//   srv<N>.<subsystem>.<metric>[.<class>]   per data server
//
// e.g. "cache.read_hits", "srv3.disk.busy_ms", "cache.admit.fragment".
// All storage is ordered (std::map) so iteration, flattening, and CSV output
// are deterministic.
//
// Distributions are exact stats::Histograms: the one a run publishes,
// cache.ret_estimate_ms, is already stored exactly by every cache, and its
// Eq. (2)/(3) return estimates are signed, so a log-bucketed sketch would
// fold every non-positive sample into one underflow bucket.  The bounded
// always-on tails are the per-server stats::ServiceTimeMeter sketches.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "sim/time.hpp"
#include "stats/histogram.hpp"

namespace ibridge::obs {

/// A flattened (name, value) view of the registry, for tables and CSV.
using MetricRow = std::pair<std::string, double>;

/// How a flattened row behaves over time — drives TimeSeries backfill
/// semantics (see TimeSeries below).
enum class MetricKind {
  kCounter,  ///< monotonic count; "absent" genuinely means zero
  kGauge,    ///< point-in-time value; "absent" means *unknown*, not zero
};

class MetricsRegistry {
 public:
  /// Monotonic event count; created at zero on first use.
  std::int64_t& counter(const std::string& name) { return counters_[name]; }

  /// Point-in-time value; created at zero on first use.
  double& gauge(const std::string& name) { return gauges_[name]; }

  /// Value distribution with exact percentiles; created empty on first use.
  stats::Histogram& histogram(const std::string& name) {
    return histograms_[name];
  }

  bool has(const std::string& name) const {
    return counters_.count(name) != 0 || gauges_.count(name) != 0 ||
           histograms_.count(name) != 0;
  }

  const std::map<std::string, std::int64_t>& counters() const {
    return counters_;
  }
  const std::map<std::string, double>& gauges() const { return gauges_; }
  const std::map<std::string, stats::Histogram>& histograms() const {
    return histograms_;
  }

  /// Every metric as (name, value), sorted by name.  Histograms expand to
  /// .count/.mean/.p50/.p95/.p99/.max rows.  When `kinds` is non-null it is
  /// filled parallel to the result: counters and histogram .count rows are
  /// kCounter, everything else kGauge.
  std::vector<MetricRow> flatten(std::vector<MetricKind>* kinds = nullptr) const;

  /// Two-column "name,value" CSV of flatten().
  void write_csv(std::ostream& os) const;

  void clear() {
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
  }

 private:
  std::map<std::string, std::int64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, stats::Histogram> histograms_;
};

/// Periodic snapshots of a metric set: one row per sample time, one column
/// per metric name (union over all samples).
///
/// Missing-cell rule: a row sampled before a column first appeared has no
/// value for it.  Counter columns backfill as 0 (the count genuinely was
/// zero before the subsystem emitted it); gauge columns backfill as an
/// *empty* CSV cell, because a gauge that did not exist yet was unknown —
/// writing 0 would plot false zeros on dashboards.
/// cluster::Cluster::start_metrics_sampler() feeds one of these on a
/// configurable sim-time cadence.
class TimeSeries {
 public:
  /// Append one sample row at `when` from the registry's flattened view.
  void sample(sim::SimTime when, const MetricsRegistry& reg);

  std::size_t rows() const { return samples_.size(); }
  const std::vector<std::string>& columns() const { return columns_; }
  const std::vector<MetricKind>& column_kinds() const { return kinds_; }

  /// "time_ms,<col>,<col>,..." CSV of all samples (see missing-cell rule
  /// above).
  void write_csv(std::ostream& os) const;

 private:
  std::vector<std::string> columns_;
  std::vector<MetricKind> kinds_;
  std::map<std::string, std::size_t> column_index_;
  std::vector<std::pair<sim::SimTime, std::vector<double>>> samples_;
};

}  // namespace ibridge::obs
