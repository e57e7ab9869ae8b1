#include "workloads/trace.hpp"

#include <algorithm>
#include <cassert>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "mpiio/mpi.hpp"

namespace ibridge::workloads {

// -------------------------------------------------------------- text IO ----

void write_trace(std::ostream& os, const Trace& trace) {
  for (const auto& r : trace) {
    os << (r.write ? 'W' : 'R') << ' ' << r.offset << ' ' << r.size << '\n';
  }
}

Trace read_trace(std::istream& is) {
  Trace out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    char op = 0;
    TraceRecord r;
    if (!(ss >> op >> r.offset >> r.size) || (op != 'R' && op != 'W') ||
        r.offset < 0 || r.size <= 0) {
      throw std::runtime_error("malformed trace line " +
                               std::to_string(lineno) + ": " + line);
    }
    r.write = op == 'W';
    out.push_back(r);
  }
  return out;
}

// ----------------------------------------------------------- classifier ----

AccessStats AccessClassifier::finish(const Accumulator& acc) const {
  AccessStats s;
  if (acc.requests == 0) return s;
  const auto n = static_cast<double>(acc.requests);
  s.requests = acc.requests;
  s.unaligned_pct = 100.0 * static_cast<double>(acc.unaligned) / n;
  s.random_pct = 100.0 * static_cast<double>(acc.random) / n;
  s.total_pct = s.unaligned_pct + s.random_pct;
  s.avg_size = acc.size_sum / n;
  return s;
}

AccessStats AccessClassifier::classify(const Trace& trace) const {
  Accumulator acc;
  for (const auto& r : trace) add(acc, r);
  return finish(acc);
}

// ---------------------------------------------------------- synthesizer ----

TraceProfile alegra_2744_profile() {
  return {"ALEGRA-2744", 0.352, 0.073, 96 * 1024, 4 * 1024, 0.7};
}
TraceProfile alegra_5832_profile() {
  return {"ALEGRA-5832", 0.357, 0.069, 96 * 1024, 4 * 1024, 0.7};
}
TraceProfile cth_profile() {
  return {"CTH", 0.243, 0.301, 112 * 1024, 6 * 1024, 0.7};
}
TraceProfile s3d_profile() {
  // S3D's average request size is markedly larger (its replayed service
  // time is about twice the others' in Table III).
  return {"S3D", 0.628, 0.058, 256 * 1024, 8 * 1024, 0.7};
}

Trace TraceSynthesizer::generate(std::size_t n, std::int64_t file_bytes,
                                 std::uint64_t seed) const {
  // The generator proper is WorkloadStream; materializing is just draining
  // it, so the two paths are digest-equivalent.
  WorkloadStream s = stream(file_bytes, seed);
  Trace out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord r = s.next();
    assert(r.offset + r.size <= file_bytes || r.offset == 0);
    out.push_back(r);
  }
  return out;
}

// -------------------------------------------------------------- replayer ----

namespace {

/// The replaying rank: `n` synchronous requests, each record from `next()`
/// clamped to the file.
template <typename Next>
sim::Task<> replay_body(mpiio::MpiContext ctx, mpiio::MpiFile file,
                        std::size_t n, Next next, std::int64_t file_bytes,
                        Tally* tally) {
  for (std::size_t i = 0; i < n; ++i) {
    const TraceRecord rec = next();
    const std::int64_t size = std::min<std::int64_t>(rec.size, file_bytes);
    const std::int64_t off = std::min(rec.offset, file_bytes - size);
    sim::SimTime t;
    if (rec.write) {
      t = co_await file.write_at(ctx.rank(), off, size);
    } else {
      t = co_await file.read_at(ctx.rank(), off, size);
    }
    tally->add(t, size);
  }
}

template <typename Next>
WorkloadResult replay(cluster::Cluster& cluster, const ReplayConfig& cfg,
                      std::size_t n, Next next) {
  Tally tally;
  return run_ranks(cluster, cfg.file_name, cfg.file_bytes, 1, tally,
                   [&](mpiio::MpiContext ctx, mpiio::MpiFile file) {
                     return replay_body(ctx, file, n, next, cfg.file_bytes,
                                        &tally);
                   });
}

}  // namespace

WorkloadResult replay_trace(cluster::Cluster& cluster, const Trace& trace,
                            const ReplayConfig& cfg) {
  return replay(cluster, cfg, trace.size(),
                [&trace, i = std::size_t{0}]() mutable { return trace[i++]; });
}

WorkloadResult replay_stream(cluster::Cluster& cluster, WorkloadStream& stream,
                             std::size_t n, const ReplayConfig& cfg) {
  return replay(cluster, cfg, n, [&stream] { return stream.next(); });
}

}  // namespace ibridge::workloads
