// Per-request service-time meter scraped by the benchmark harness.
#pragma once

#include "sim/time.hpp"
#include "stats/histogram.hpp"
#include "stats/sketch.hpp"

namespace ibridge::stats {

/// Per-request service-time accumulator (Table III replay metric).  Tail
/// latencies come from a bounded QuantileSketch, so per-server p50/p99 are
/// always on at O(1) memory per server regardless of request count; the
/// sketch's own moments give the count and mean.
class ServiceTimeMeter {
 public:
  // The meter sits on the serve path of every request, so its sketch takes
  // the worst-case preallocation: a new latency magnitude discovered mid-run
  // must not reallocate the bucket vector (the zero-allocs-per-request
  // steady-state gate counts that as serve-path churn).
  ServiceTimeMeter() { sketch_.reserve_full(); }

  void add(sim::SimTime t) { sketch_.add(t.to_millis()); }
  double mean_ms() const { return sketch_.mean(); }
  double p50_ms() const { return sketch_.percentile(50.0); }
  double p99_ms() const { return sketch_.percentile(99.0); }
  std::uint64_t count() const { return sketch_.count(); }
  const Summary& summary() const { return sketch_.summary(); }
  const QuantileSketch& sketch() const { return sketch_; }

 private:
  QuantileSketch sketch_;
};

}  // namespace ibridge::stats
