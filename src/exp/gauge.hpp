// Machine-readable benchmark gauges: BENCH_<name>.json.
//
// Every bench and the CI bench-gauge job emit one Gauge per run so that
// performance is a *recorded trajectory*, not a number scrolled past in a
// log.  A gauge separates two kinds of measurement:
//
//   model  — deterministic simulation outputs (simulated seconds, request
//            counts, MetricsRegistry rows).  Identical on every rerun and
//            at every --jobs level; determinism tests compare exactly this
//            projection (json(/*include_wall=*/false)).
//   wall   — host-machine timings (seconds, events/sec).  Real but noisy;
//            excluded from determinism comparison by construction.
//
// Schema (documented in docs/PERF.md, validated by CI):
//   {
//     "bench":  "<name>",
//     "schema": "ibridge-bench-gauge-v1",
//     "model":  { "<key>": <number>, ... },   // sorted keys
//     "wall":   { "<key>": <number>, ... }    // sorted keys, may be absent
//   }
#pragma once

#include <chrono>
#include <iosfwd>
#include <map>
#include <string>
#include <utility>

namespace ibridge::exp {

class Gauge {
 public:
  explicit Gauge(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }

  /// Record a deterministic model metric.
  void set(const std::string& key, double value) { model_[key] = value; }

  /// Record a host wall-clock measurement.
  void set_wall(const std::string& key, double value) { wall_[key] = value; }

  const std::map<std::string, double>& model() const { return model_; }
  const std::map<std::string, double>& wall() const { return wall_; }

  /// The gauge as JSON (keys sorted, numbers in round-trip precision).
  /// include_wall=false omits the "wall" object entirely — the projection
  /// determinism tests compare byte-for-byte.
  std::string json(bool include_wall = true) const;
  void write_json(std::ostream& os, bool include_wall = true) const;

  /// Write BENCH_<name>.json into `dir`.  Returns false on I/O failure.
  bool write_file(const std::string& dir = ".") const;

  static constexpr const char* kSchema = "ibridge-bench-gauge-v1";

 private:
  std::string name_;
  std::map<std::string, double> model_;
  std::map<std::string, double> wall_;
};

/// Peak resident set size of this process in MB (VmHWM from
/// /proc/self/status, 1 MB = 10^6 bytes); 0.0 when unavailable (non-Linux
/// hosts).  A host measurement — record it under set_wall(), never as a
/// model metric.
double peak_rss_mb();

/// The getrusage(RUSAGE_SELF) path peak_rss_mb() falls back to when
/// /proc/self/status is unavailable.  Exposed so tests can pin the fallback
/// independently of procfs; 0.0 only on non-POSIX hosts.
double peak_rss_mb_rusage();

/// Minimal wall timer for gauge "wall" entries.  steady_clock, so it never
/// jumps; never used for model time (the lint wall-clock rule still bans
/// calendar clocks in model code).
class Stopwatch {
 public:
  Stopwatch() : t0_(std::chrono::steady_clock::now()) {}

  /// Seconds elapsed since construction.
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace ibridge::exp
