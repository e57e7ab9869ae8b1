#include "workloads/trace.hpp"

#include <algorithm>
#include <cassert>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "mpiio/mpi.hpp"
#include "stats/histogram.hpp"

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

sim::Task<> replay_one(mpiio::MpiContext& ctx, mpiio::MpiFile& file,
                       TraceRecord rec, std::int64_t file_bytes,
                       stats::Summary* request_ms, std::int64_t* bytes) {
  std::int64_t off = rec.offset;
  std::int64_t size = std::min<std::int64_t>(rec.size, file_bytes);
  if (off + size > file_bytes) off = file_bytes - size;
  sim::SimTime t;
  if (rec.write) {
    t = co_await file.write_at(ctx.rank(), off, size);
  } else {
    t = co_await file.read_at(ctx.rank(), off, size);
  }
  request_ms->add(t.to_millis());
  *bytes += size;
}

sim::Task<> replay_body(mpiio::MpiContext ctx, mpiio::MpiFile file,
                        const Trace* trace, std::int64_t file_bytes,
                        stats::Summary* request_ms, std::int64_t* bytes) {
  for (const auto& rec : *trace) {
    co_await replay_one(ctx, file, rec, file_bytes, request_ms, bytes);
  }
}

sim::Task<> replay_stream_body(mpiio::MpiContext ctx, mpiio::MpiFile file,
                               WorkloadStream* stream, std::size_t n,
                               std::int64_t file_bytes,
                               stats::Summary* request_ms,
                               std::int64_t* bytes) {
  for (std::size_t i = 0; i < n; ++i) {
    co_await replay_one(ctx, file, stream->next(), file_bytes, request_ms,
                        bytes);
  }
}

/// Shared driver around the per-record loop: spawn the replaying rank, run
/// the cluster until it finishes, drain the write-back daemons.
template <typename LaunchBody>
WorkloadResult drive_replay(cluster::Cluster& cluster,
                            stats::Summary& request_ms, std::int64_t& bytes,
                            LaunchBody&& body) {
  mpiio::MpiEnvironment env(cluster.sim(), cluster.client(), 1);
  const sim::SimTime t0 = cluster.sim().now();
  env.launch(body);
  cluster.sim().run_while_pending([&] { return env.finished(); });
  const sim::SimTime io_done = cluster.sim().now();
  const sim::SimTime flushed = cluster.drain();

  WorkloadResult r;
  r.io_elapsed = io_done - t0;
  r.elapsed = flushed - t0;
  r.bytes = bytes;
  r.requests = request_ms.count();
  r.avg_request_ms = request_ms.mean();
  return r;
}

}  // namespace

WorkloadResult replay_trace(cluster::Cluster& cluster, const Trace& trace,
                            const ReplayConfig& cfg) {
  cluster.restart_daemons();
  auto fh = cluster.create_file(cfg.file_name, cfg.file_bytes);
  mpiio::MpiFile file(cluster.client(), fh);

  stats::Summary request_ms;
  std::int64_t bytes = 0;
  return drive_replay(cluster, request_ms, bytes,
                      [&](mpiio::MpiContext ctx) {
                        return replay_body(ctx, file, &trace, cfg.file_bytes,
                                           &request_ms, &bytes);
                      });
}

WorkloadResult replay_stream(cluster::Cluster& cluster, WorkloadStream& stream,
                             std::size_t n, const ReplayConfig& cfg) {
  cluster.restart_daemons();
  auto fh = cluster.create_file(cfg.file_name, cfg.file_bytes);
  mpiio::MpiFile file(cluster.client(), fh);

  stats::Summary request_ms;
  std::int64_t bytes = 0;
  return drive_replay(cluster, request_ms, bytes,
                      [&](mpiio::MpiContext ctx) {
                        return replay_stream_body(ctx, file, &stream, n,
                                                  cfg.file_bytes, &request_ms,
                                                  &bytes);
                      });
}

}  // namespace ibridge::workloads
