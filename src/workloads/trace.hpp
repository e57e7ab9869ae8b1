// I/O trace toolkit: record format, text serialization, the Table I access
// classifier, synthetic trace generation, and replay through the cluster.
//
// The paper's Table I / Table III traces (ALEGRA-2744, ALEGRA-5832, CTH,
// S3D) come from Sandia's Scalable I/O project and are not redistributable;
// TraceSynthesizer generates streams whose classification statistics match
// the table's published percentages (unaligned %, random %, and relative
// request sizes), which is what the experiments depend on.  TraceReader /
// TraceWriter handle a one-record-per-line text format ("R|W offset size")
// so externally obtained traces can be replayed directly.
#pragma once

#include <algorithm>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/rng.hpp"
#include "workloads/common.hpp"

namespace ibridge::workloads {

struct TraceRecord {
  bool write = false;
  std::int64_t offset = 0;
  std::int64_t size = 0;
};

using Trace = std::vector<TraceRecord>;

// ------------------------------------------------------------- text IO ----

/// Serialize one record per line: "R <offset> <size>" / "W <offset> <size>".
void write_trace(std::ostream& os, const Trace& trace);
/// Parse the text format; throws std::runtime_error on malformed input.
Trace read_trace(std::istream& is);

// ----------------------------------------------------------- classifier ----

/// Table I classification of a trace against a striping unit.
struct AccessStats {
  double unaligned_pct = 0.0;  ///< > unit but not unit-aligned
  double random_pct = 0.0;     ///< smaller than the random threshold
  double total_pct = 0.0;      ///< unaligned + random
  double avg_size = 0.0;       ///< mean request size (bytes)
  std::uint64_t requests = 0;
};

class AccessClassifier {
 public:
  explicit AccessClassifier(std::int64_t stripe_unit = 64 * 1024,
                            std::int64_t random_threshold = 20 * 1024)
      : unit_(stripe_unit), random_(random_threshold) {}

  bool is_unaligned(const TraceRecord& r) const {
    return r.size > unit_ && (r.offset % unit_ != 0 || r.size % unit_ != 0);
  }
  bool is_random(const TraceRecord& r) const { return r.size < random_; }

  /// Incremental classification state for streamed workloads: feed records
  /// one at a time with add(), read the stats with finish() — no
  /// materialized Trace needed.  classify() is add() over a vector.
  struct Accumulator {
    std::uint64_t unaligned = 0;
    std::uint64_t random = 0;
    std::uint64_t requests = 0;
    double size_sum = 0.0;
  };

  void add(Accumulator& acc, const TraceRecord& r) const {
    if (is_unaligned(r)) ++acc.unaligned;
    if (is_random(r)) ++acc.random;
    ++acc.requests;
    acc.size_sum += static_cast<double>(r.size);
  }

  AccessStats finish(const Accumulator& acc) const;
  AccessStats classify(const Trace& trace) const;

 private:
  std::int64_t unit_;
  std::int64_t random_;
};

// ---------------------------------------------------------- synthesizer ----

/// Distributional profile of one application's I/O (Table I row).
struct TraceProfile {
  std::string name;
  double unaligned_frac;   ///< requests larger than the unit, unaligned
  double random_frac;      ///< requests below 20 KB
  std::int64_t large_size; ///< typical size of large requests (bytes)
  std::int64_t small_size; ///< typical size of random requests (bytes)
  double write_frac = 0.7; ///< checkpoint-style traces are write-heavy
};

/// Profiles for the paper's four traces (Table I percentages; S3D's larger
/// average request size reflects its roughly 2x service time in Table III).
TraceProfile alegra_2744_profile();
TraceProfile alegra_5832_profile();
TraceProfile cth_profile();
TraceProfile s3d_profile();

/// Seeded, allocation-free request generator: the Table I synthesizer's
/// loop turned inside out.  State is one Rng and a sequential cursor (a
/// cursor models checkpoint-style forward progress; random small requests
/// and occasional jumps model header updates and restarts), so a
/// million-rank campaign can give every rank its own stream without
/// materializing a Trace.  TraceSynthesizer::generate() drains one, so for
/// a given (profile, unit, file_bytes, seed) the streamed and materialized
/// sequences are record-for-record, draw-for-draw identical.
class WorkloadStream {
 public:
  WorkloadStream(const TraceProfile& profile, std::int64_t stripe_unit,
                 std::int64_t file_bytes, std::uint64_t seed)
      : random_frac_(profile.random_frac),
        large_size_(profile.large_size),
        small_size_(profile.small_size),
        write_frac_(profile.write_frac),
        aligned_large_frac_(std::max(
            0.0, 1.0 - profile.unaligned_frac - profile.random_frac)),
        unit_(stripe_unit),
        file_bytes_(file_bytes),
        rng_(seed) {}

  /// The next record of the stream.  Never allocates — a million-rank
  /// campaign calls this from the steady-state serve path.
  TraceRecord next() {
    TraceRecord r;
    r.write = rng_.chance(write_frac_);
    const double u = rng_.uniform01();
    if (u < random_frac_) {
      // Regular random request: small, anywhere in the file.
      r.size = std::max<std::int64_t>(
          512, small_size_ / 2 + rng_.uniform(0, small_size_));
      r.offset =
          rng_.uniform(0, std::max<std::int64_t>(1, file_bytes_ - r.size));
    } else if (u < random_frac_ + aligned_large_frac_) {
      // Aligned large request: unit-multiple size at a unit boundary.
      const std::int64_t units = std::max<std::int64_t>(1, large_size_ / unit_);
      r.size = units * unit_;
      cursor_ = (cursor_ / unit_) * unit_;
      if (cursor_ + r.size > file_bytes_) cursor_ = 0;
      r.offset = cursor_;
      cursor_ += r.size;
    } else {
      // Unaligned large request: bigger than a unit, odd size or offset.
      r.size = large_size_ +
               rng_.uniform(1, std::max<std::int64_t>(2, unit_ / 2));
      if (cursor_ + r.size > file_bytes_) cursor_ = 0;
      r.offset = cursor_;
      cursor_ += r.size;
    }
    ++generated_;
    return r;
  }

  std::int64_t file_bytes() const { return file_bytes_; }
  std::uint64_t generated() const { return generated_; }

 private:
  // Only the profile numbers next() reads: each rank of a scale run keeps
  // a stream in its coroutine frame, so the profile's name stays behind.
  double random_frac_;
  std::int64_t large_size_;
  std::int64_t small_size_;
  double write_frac_;
  double aligned_large_frac_;
  std::int64_t unit_;
  std::int64_t file_bytes_;
  sim::Rng rng_;
  std::int64_t cursor_ = 0;
  std::uint64_t generated_ = 0;
};

class TraceSynthesizer {
 public:
  TraceSynthesizer(TraceProfile profile, std::int64_t stripe_unit = 64 * 1024)
      : profile_(std::move(profile)), unit_(stripe_unit) {}

  /// Generate `n` requests over a file of `file_bytes`.  Delegates to
  /// stream(): the materialized trace and the streamed sequence are
  /// record-for-record identical for the same seed.
  Trace generate(std::size_t n, std::int64_t file_bytes,
                 std::uint64_t seed) const;

  /// The same generator as an O(1)-state on-demand stream (scale runs that
  /// cannot afford a materialized Trace).
  WorkloadStream stream(std::int64_t file_bytes, std::uint64_t seed) const {
    return WorkloadStream(profile_, unit_, file_bytes, seed);
  }

 private:
  TraceProfile profile_;
  std::int64_t unit_;
};

// -------------------------------------------------------------- replayer ----

struct ReplayConfig {
  std::int64_t file_bytes = 10LL * 1000 * 1000 * 1000;  ///< data-size cap
  std::string file_name = "trace.dat";
};

/// Replay a trace synchronously through the cluster from a single process,
/// as the paper does; WorkloadResult's avg_request_ms is the Table III
/// metric.
WorkloadResult replay_trace(cluster::Cluster& cluster, const Trace& trace,
                            const ReplayConfig& cfg = {});

/// Replay `n` records pulled from a stream on demand — no materialized
/// Trace, bounded memory at any n.  For a stream built from the same
/// (profile, unit, file_bytes, seed), the issued requests (and therefore
/// the simulated schedule) are identical to replay_trace() over
/// TraceSynthesizer::generate(n, ...).
WorkloadResult replay_stream(cluster::Cluster& cluster, WorkloadStream& stream,
                             std::size_t n, const ReplayConfig& cfg = {});

}  // namespace ibridge::workloads
