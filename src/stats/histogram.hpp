// General-purpose statistics accumulators used throughout the simulator.
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace ibridge::stats {

/// Streaming summary of a scalar series: count/mean/min/max/variance
/// (Welford's online algorithm).
class Summary {
 public:
  void add(double x) {
    ++n_;
    if (x < min_ || n_ == 1) min_ = x;
    if (x > max_ || n_ == 1) max_ = x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
    sum_ += x;
  }

  std::uint64_t count() const { return n_; }
  double sum() const { return sum_; }
  double mean() const { return n_ ? mean_ : 0.0; }
  double min() const { return n_ ? min_ : 0.0; }
  double max() const { return n_ ? max_ : 0.0; }
  double variance() const {
    return n_ > 1 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
  }
  double stddev() const { return std::sqrt(variance()); }

  void merge(const Summary& o) {
    if (o.n_ == 0) return;
    if (n_ == 0) {
      *this = o;
      return;
    }
    const double delta = o.mean_ - mean_;
    const auto na = static_cast<double>(n_), nb = static_cast<double>(o.n_);
    m2_ += o.m2_ + delta * delta * na * nb / (na + nb);
    mean_ = (na * mean_ + nb * o.mean_) / (na + nb);
    min_ = std::min(min_, o.min_);
    max_ = std::max(max_, o.max_);
    sum_ += o.sum_;
    n_ += o.n_;
  }

 private:
  std::uint64_t n_ = 0;
  double mean_ = 0.0, m2_ = 0.0, sum_ = 0.0;
  double min_ = 0.0, max_ = 0.0;
};

/// Sample-keeping distribution with exact percentiles.  Unlike Summary it
/// stores every observation (sorted lazily), so it answers any quantile
/// exactly — used for the caches' return-estimate distributions and the
/// metrics registry's histograms, where sample counts stay modest.
///
/// The lazy sort is incremental: only the samples added since the last sort
/// are sorted, then merged into the sorted prefix, and merge() merges two
/// sorted runs.  A metrics sampler that merges every cache's histogram into
/// a fresh registry at each tick thus pays O(samples) per tick, not
/// O(samples log samples).
class Histogram {
 public:
  void add(double x) {
    samples_.push_back(x);
    moments_.add(x);
  }

  std::uint64_t count() const { return moments_.count(); }
  double mean() const { return moments_.mean(); }
  double min() const { return moments_.min(); }
  double max() const { return moments_.max(); }
  double sum() const { return moments_.sum(); }
  const Summary& summary() const { return moments_; }

  /// Nearest-rank percentile (the ceil(p/100 * n)-th order statistic), `p`
  /// in [0, 100].  Returns 0 when empty, the sole sample when count()==1,
  /// min() for p<=0 and max() for p>=100.
  double percentile(double p) const {
    if (samples_.empty()) return 0.0;
    sort_samples();
    if (p <= 0.0) return samples_.front();
    if (p >= 100.0) return samples_.back();
    const auto n = static_cast<double>(samples_.size());
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * n));
    return samples_[rank == 0 ? 0 : rank - 1];
  }

  double median() const { return percentile(50.0); }

  void merge(const Histogram& o) {
    o.sort_samples();
    sort_samples();
    const auto mid = static_cast<std::ptrdiff_t>(samples_.size());
    samples_.insert(samples_.end(), o.samples_.begin(), o.samples_.end());
    std::inplace_merge(samples_.begin(), samples_.begin() + mid,
                       samples_.end());
    sorted_ = samples_.size();
    moments_.merge(o.moments_);
  }

  void clear() {
    samples_.clear();
    sorted_ = 0;
    moments_ = {};
  }

 private:
  // Sort the samples past the sorted prefix and merge them into it.
  void sort_samples() const {
    if (sorted_ == samples_.size()) return;
    const auto mid = samples_.begin() + static_cast<std::ptrdiff_t>(sorted_);
    std::sort(mid, samples_.end());
    std::inplace_merge(samples_.begin(), mid, samples_.end());
    sorted_ = samples_.size();
  }

  // percentile() and merge()'s argument are logically const; the lazy sort
  // is an implementation detail (same observable sequence either way).
  mutable std::vector<double> samples_;
  mutable std::size_t sorted_ = 0;  ///< samples_[0, sorted_) is sorted
  Summary moments_;
};

/// Exact histogram over integer keys.  Used for block-request size
/// distributions where the key is the request size in 512 B sectors.
///
/// Keys in [0, kDenseKeys) — every realistic sector count; the schedulers
/// merge to at most 1024 sectors — live in a flat array sized once on first
/// use, so the per-dispatch add() on the device hot path never allocates in
/// steady state (a sparse map would insert a fresh tree node for every new
/// distinct size, which the scale campaign's zero-allocs-per-request gate
/// flagged).  Outlier keys fall back to the sparse map, keeping the
/// histogram exact for arbitrary inputs.
class IntHistogram {
 public:
  static constexpr std::int64_t kDenseKeys = 2048;

  void add(std::int64_t key, std::uint64_t weight = 1) {
    if (key >= 0 && key < kDenseKeys) {
      if (dense_.empty()) dense_.resize(static_cast<std::size_t>(kDenseKeys));
      dense_[static_cast<std::size_t>(key)] += weight;
    } else {
      bins_[key] += weight;
    }
    total_ += weight;
  }

  std::uint64_t total() const { return total_; }
  std::uint64_t count(std::int64_t key) const {
    if (key >= 0 && key < kDenseKeys) {
      return static_cast<std::size_t>(key) < dense_.size()
                 ? dense_[static_cast<std::size_t>(key)]
                 : 0;
    }
    auto it = bins_.find(key);
    return it == bins_.end() ? 0 : it->second;
  }
  double fraction(std::int64_t key) const {
    return total_ ? static_cast<double>(count(key)) /
                        static_cast<double>(total_)
                  : 0.0;
  }

  /// Keys sorted ascending.  The sparse map holds only keys outside
  /// [0, kDenseKeys), so negatives come first, the dense lane next, and
  /// oversize keys last — each range already sorted.
  std::vector<std::int64_t> keys() const {
    std::vector<std::int64_t> ks;
    auto it = bins_.begin();
    for (; it != bins_.end() && it->first < 0; ++it) ks.push_back(it->first);
    for (std::size_t k = 0; k < dense_.size(); ++k) {
      if (dense_[k] != 0) ks.push_back(static_cast<std::int64_t>(k));
    }
    for (; it != bins_.end(); ++it) ks.push_back(it->first);
    return ks;
  }

  /// The `n` most frequent keys, descending by count.
  std::vector<std::pair<std::int64_t, std::uint64_t>> top(std::size_t n) const {
    std::vector<std::pair<std::int64_t, std::uint64_t>> v(bins_.begin(),
                                                          bins_.end());
    for (std::size_t k = 0; k < dense_.size(); ++k) {
      if (dense_[k] != 0) v.emplace_back(static_cast<std::int64_t>(k), dense_[k]);
    }
    std::sort(v.begin(), v.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    if (v.size() > n) v.resize(n);
    return v;
  }

  /// Weighted mean of keys.
  double mean() const {
    if (!total_) return 0.0;
    double s = 0.0;
    for (const auto& [k, c] : bins_)
      s += static_cast<double>(k) * static_cast<double>(c);
    for (std::size_t k = 0; k < dense_.size(); ++k)
      s += static_cast<double>(k) * static_cast<double>(dense_[k]);
    return s / static_cast<double>(total_);
  }

  void clear() {
    bins_.clear();
    dense_.clear();
    total_ = 0;
  }

 private:
  std::map<std::int64_t, std::uint64_t> bins_;
  std::vector<std::uint64_t> dense_;  // lane for keys in [0, kDenseKeys)
  std::uint64_t total_ = 0;
};

}  // namespace ibridge::stats
