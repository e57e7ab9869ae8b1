// Bounded-memory quantile estimator for always-on observability.
//
// stats::Histogram keeps every sample, so its memory grows O(observations) —
// fine for a few thousand return estimates, fatal for a per-server meter on
// the serve path of a million-rank run.  QuantileSketch is a DDSketch-style
// log-bucketed sketch with a *guaranteed* relative error and O(1) worst-case
// memory.  Unlike the textbook DDSketch it maps values to buckets with a
// piecewise-linear log2 approximation built from frexp/ldexp/floor only.
// Every operation is an exactly-rounded IEEE primitive, so bucket indices —
// and therefore digests, merges, and quantile answers — are bit-identical
// across platforms and libm versions (the bench-diff baselines rely on this;
// std::log is *not* correctly rounded everywhere).
//
// The sketch is a deterministic function of its input sequence, and
// QuantileSketch::merge is *exact* and associative on the bucket counts
// (integer sums), so per-server sketches fold into one in any order.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.hpp"
#include "stats/histogram.hpp"

namespace ibridge::stats {

/// Log-bucketed quantile sketch with relative error <= 1/kBucketsPerOctave.
///
/// Mapping: a positive value x = m * 2^e (frexp, m in [0.5, 1)) has
/// approx_log2(x) = (e - 1) + (2m - 1), the piecewise-linear interpolation of
/// log2 that is exact at powers of two.  With B = kBucketsPerOctave, bucket
/// i covers approx_log2(x) * B in [i, i+1); its representative value is the
/// midpoint mapped back through the (monotone, exactly invertible)
/// approximation.
/// Within one bucket, |x - x_hat| <= 2^k * 0.5/B while x >= 2^k, so the
/// answer is within 1/B of the true quantile *value* — the DDSketch
/// guarantee, achieved with exact float ops only.
///
/// Values are clamped to [2^kMinExp, 2^kMaxExp); out-of-range observations
/// land in underflow/overflow counters whose quantile answer is the exact
/// observed min/max.  The bucket-index range is therefore fixed by
/// construction — (kMaxExp - kMinExp) * B buckets at most — which is the
/// O(1) memory bound (asserted by bench_obs --check); occupied buckets are
/// stored sparsely, so typical metrics use a few hundred bytes.
class QuantileSketch {
 public:
  static constexpr int kMinExp = -20;  ///< ~1e-6: below = underflow
  static constexpr int kMaxExp = 40;   ///< ~1e12: above = overflow

  static constexpr int kBucketsPerOctave = 100;

  /// Guaranteed worst-case relative error of percentile() for in-range
  /// values: 1 / kBucketsPerOctave.
  static constexpr double relative_error() { return 1.0 / kBucketsPerOctave; }

  void add(double x) {
    moments_.add(x);
    if (!(x >= min_value())) {  // catches negatives, zero, and NaN
      ++underflow_;
      return;
    }
    if (x >= max_value()) {
      ++overflow_;
      return;
    }
    bump(index_of(x), 1);
  }

  std::uint64_t count() const { return moments_.count(); }
  double sum() const { return moments_.sum(); }
  double mean() const { return moments_.mean(); }
  double min() const { return moments_.min(); }
  double max() const { return moments_.max(); }
  const Summary& summary() const { return moments_; }

  /// Nearest-rank percentile estimate, `p` in [0, 100] — same conventions as
  /// Histogram::percentile (0 when empty, min for p<=0, max for p>=100).
  /// In-range answers are within relative_error() of the exact value.
  double percentile(double p) const {
    const std::uint64_t n = moments_.count();
    if (n == 0) return 0.0;
    if (p <= 0.0) return moments_.min();
    if (p >= 100.0) return moments_.max();
    const auto rank = static_cast<std::uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(n)));
    std::uint64_t seen = underflow_;
    if (rank <= seen) return moments_.min();
    for (const Bucket& b : buckets_) {
      seen += b.count;
      if (rank <= seen) {
        return std::clamp(value_of(b.index), moments_.min(), moments_.max());
      }
    }
    return moments_.max();
  }

  double median() const { return percentile(50.0); }

  /// Exact merge: bucket counts are integer sums, so merging is associative
  /// and commutative (the moments' mean/variance merge in floating point and
  /// are not — quantiles and digests never depend on them).
  void merge(const QuantileSketch& o) {
    underflow_ += o.underflow_;
    overflow_ += o.overflow_;
    for (const Bucket& b : o.buckets_) bump(b.index, b.count);
    moments_.merge(o.moments_);
  }

  void clear() {
    buckets_.clear();
    underflow_ = overflow_ = 0;
    moments_ = {};
  }

  /// Preallocate the worst-case bucket footprint — (kMaxExp - kMinExp) *
  /// kBucketsPerOctave entries — so add() never reallocates, no matter
  /// which indices the stream discovers.  Opted into by always-on hot-path
  /// meters (the scale campaign's zero-allocs-per-request serve gate);
  /// other sketches stay lazily sized at a few hundred bytes.
  void reserve_full() {
    buckets_.reserve(static_cast<std::size_t>(kMaxExp - kMinExp) *
                     static_cast<std::size_t>(kBucketsPerOctave));
  }

  std::size_t bucket_count() const { return buckets_.size(); }

  /// Bytes held beyond sizeof(*this) — the O(1) bound bench_obs asserts.
  std::size_t memory_bytes() const {
    return sizeof(*this) + buckets_.capacity() * sizeof(Bucket);
  }

  /// Order-sensitive-free fingerprint of the distribution state: a stable
  /// mix over (index, count) pairs plus the under/overflow counters.  Two
  /// sketches that merged the same multiset of observations in any order
  /// have equal digests — the proof hook for --jobs determinism.
  std::uint64_t digest() const {
    std::uint64_t s =
        0x6f62735fULL + static_cast<std::uint64_t>(kBucketsPerOctave);
    std::uint64_t h = sim::splitmix64(s);
    const auto mix = [&](std::uint64_t v) {
      s ^= v;
      h ^= sim::splitmix64(s);
    };
    mix(underflow_);
    mix(overflow_);
    for (const Bucket& b : buckets_) {
      mix(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(b.index)));
      mix(b.count);
    }
    return h;
  }

 private:
  struct Bucket {
    std::int32_t index = 0;
    std::uint64_t count = 0;
  };

  static double min_value() { return std::ldexp(1.0, kMinExp); }
  static double max_value() { return std::ldexp(1.0, kMaxExp); }

  /// floor(approx_log2(x) * B) via frexp — exact, platform-independent.
  std::int32_t index_of(double x) const {
    int e = 0;
    const double m = std::frexp(x, &e);  // x = m * 2^e, m in [0.5, 1)
    const double approx = static_cast<double>(e - 1) + (2.0 * m - 1.0);
    return static_cast<std::int32_t>(
        std::floor(approx * static_cast<double>(kBucketsPerOctave)));
  }

  /// Inverse map of the bucket midpoint: u = (i + 0.5) / B lives in octave
  /// k = floor(u); x = (u - k + 1) * 2^k.
  double value_of(std::int32_t i) const {
    const double u = (static_cast<double>(i) + 0.5) /
                     static_cast<double>(kBucketsPerOctave);
    const double k = std::floor(u);
    return std::ldexp(u - k + 1.0, static_cast<int>(k));
  }

  void bump(std::int32_t index, std::uint64_t by) {
    const auto it = std::lower_bound(
        buckets_.begin(), buckets_.end(), index,
        [](const Bucket& b, std::int32_t i) { return b.index < i; });
    if (it != buckets_.end() && it->index == index) {
      it->count += by;
      return;
    }
    buckets_.insert(it, Bucket{index, by});
  }

  std::vector<Bucket> buckets_;  ///< sorted by index
  std::uint64_t underflow_ = 0;
  std::uint64_t overflow_ = 0;
  Summary moments_;
};

}  // namespace ibridge::stats
