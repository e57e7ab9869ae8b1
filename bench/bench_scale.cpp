// bench_scale — the million-rank scale campaign.
//
// Sweeps the cluster from 8 servers / 10^3 ranks to 512 servers / 10^5
// ranks (default) and 512 / 10^6 (--full), with every rank drawing its
// requests on demand from a per-rank workloads::WorkloadStream — no
// materialized request list anywhere, so the workload's memory footprint is
// O(ranks), not O(requests).  Servers fold onto a bounded shard-group fleet
// (shard_group_size) with adaptive lookahead, so simulator state stays
// bounded while the modeled cluster grows 1000x.
//
//   bench_scale [--full] [--reps N] [--check] [--point small|mid|large]
//
// Emits ns/request (wall) and peak_rss_mb (wall) per point plus the
// deterministic model metrics (simulated seconds, requests, bytes) into
// BENCH_scale.json.
//
// --check gates the scale machinery against the classic core on the small
// point (exit 1 on failure):
//   * classic (shards=0) vs grouped+adaptive sharded runs must agree on
//     every timing-invariant checksum (requests, client bytes, server
//     bytes) — the request set is a pure function of the per-rank seeds;
//   * the steady-state serve path must be allocation-free: after a warmup
//     prefix on a stock cluster, the remaining requests must allocate
//     exactly zero times (global operator new is counted by the shared
//     bench/alloc_count.hpp counter; --trace-allocs dumps a backtrace for
//     the first allocations of the window).
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/alloc_count.hpp"
#include "cluster/cluster.hpp"
#include "exp/cli.hpp"
#include "exp/gauge.hpp"
#include "mpiio/mpi.hpp"
#include "workloads/trace.hpp"

namespace {

namespace wl = ibridge::workloads;
using ibridge::cluster::Cluster;
using ibridge::cluster::ClusterConfig;

constexpr std::int64_t kFileBytes = 4LL << 30;
constexpr int kReqsPerRank = 4;
bool g_trace_allocs = false;

/// One sweep cell: `ranks` MPI processes against `servers` data servers.
struct Point {
  int servers;
  std::int64_t ranks;
};

struct RunSpec {
  int servers = 8;
  std::int64_t ranks = 1000;
  int shards = 1;           ///< core: 0 = classic, 1 = sharded
  int group_size = 1;       ///< servers per shard
  double adaptive_us = 0.0;
  bool ibridge = true;      ///< stock cluster when false (alloc phase)
  int reqs_per_rank = kReqsPerRank;
};

struct RunResult {
  std::int64_t sim_ns = 0;      ///< simulated elapsed incl. drain
  std::uint64_t requests = 0;
  std::int64_t client_bytes = 0;
  std::int64_t served_bytes = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
};

struct Shared {
  std::uint64_t requests = 0;
  std::int64_t bytes = 0;
};

/// One rank's life: draw kReqsPerRank requests from a private stream
/// seeded by the rank id and issue them synchronously.  The stream state
/// lives on the coroutine frame — O(1) per rank, zero shared workload
/// structures.
ibridge::sim::Task<> rank_body(ibridge::mpiio::MpiContext ctx,
                               ibridge::mpiio::MpiFile file, Shared* shared,
                               int reqs) {
  ibridge::workloads::WorkloadStream stream =
      wl::TraceSynthesizer(wl::alegra_2744_profile())
          .stream(kFileBytes, 0x5ca1eULL ^ static_cast<std::uint64_t>(
                                               ctx.rank() * 2654435761ULL));
  for (int k = 0; k < reqs; ++k) {
    const wl::TraceRecord r = stream.next();
    std::int64_t off = r.offset;
    std::int64_t size = std::min<std::int64_t>(r.size, kFileBytes);
    if (off + size > kFileBytes) off = kFileBytes - size;
    if (r.write) {
      co_await file.write_at(ctx.rank(), off, size);
    } else {
      co_await file.read_at(ctx.rank(), off, size);
    }
    ++shared->requests;
    shared->bytes += size;
  }
}

ClusterConfig make_config(const RunSpec& spec) {
  ClusterConfig cc =
      spec.ibridge ? ClusterConfig::with_ibridge() : ClusterConfig::stock();
  cc.data_servers = spec.servers;
  cc.shards = spec.shards;
  cc.shard_group_size = spec.group_size;
  cc.adaptive_window_us = spec.adaptive_us;
  cc.procs_per_node = 64;
  cc.client_nodes = static_cast<int>(
      std::max<std::int64_t>(1, spec.ranks / cc.procs_per_node));
  return cc;
}

/// Run one cell; `steady_allocs_per_req` (when non-null) receives the
/// allocs/request over the post-warmup half of the run.
RunResult run_cell(const RunSpec& spec, double* steady_allocs_per_req) {
  Cluster cluster(make_config(spec));
  auto fh = cluster.create_file("scale.dat", kFileBytes);
  ibridge::mpiio::MpiFile file(cluster.client(), fh);

  Shared shared;
  ibridge::mpiio::MpiEnvironment env(cluster.sim(), cluster.client(),
                                     static_cast<int>(spec.ranks));
  const ibridge::sim::SimTime t0 = cluster.sim().now();
  ibridge::exp::Stopwatch sw;
  env.launch([&](ibridge::mpiio::MpiContext ctx) {
    return rank_body(ctx, file, &shared, spec.reqs_per_rank);
  });

  const std::uint64_t total_reqs = static_cast<std::uint64_t>(spec.ranks) *
                                   static_cast<std::uint64_t>(
                                       spec.reqs_per_rank);
  std::uint64_t steady_reqs = 0;
  std::uint64_t a0 = 0, a1 = 0;
  if (steady_allocs_per_req != nullptr) {
    // Warmup until half of the requests completed (pools, rings, and the
    // event heap reach their high-water marks — these grow in rare bursts,
    // so the plateau needs a long runway), count allocations over the
    // mid-flight 50%..87.5% window, then run the tail unmeasured — rank
    // completion/teardown churn stays out of the steady-state count.
    cluster.sim().run_while_pending(
        [&] { return shared.requests >= total_reqs / 2; });
    const std::uint64_t measured_from = shared.requests;
    a0 = ibridge::bench::alloc_count();
    if (g_trace_allocs) ibridge::bench::trace_next_allocs(24);
    cluster.sim().run_while_pending(
        [&] { return shared.requests >= (total_reqs * 7) / 8; });
    ibridge::bench::trace_next_allocs(0);
    a1 = ibridge::bench::alloc_count();
    steady_reqs = shared.requests - measured_from;
    cluster.sim().run_while_pending([&] { return env.finished(); });
  } else {
    cluster.sim().run_while_pending([&] { return env.finished(); });
  }
  const ibridge::sim::SimTime flushed = cluster.drain();

  RunResult r;
  r.wall_s = sw.seconds();
  r.sim_ns = (flushed - t0).ns();
  r.requests = shared.requests;
  r.client_bytes = shared.bytes;
  r.served_bytes = cluster.total_bytes_served().count();
  r.events = cluster.sim().events_executed();  // delegates to the group
  if (steady_allocs_per_req != nullptr) {
    *steady_allocs_per_req =
        steady_reqs == 0
            ? -1.0
            : static_cast<double>(a1 - a0) / static_cast<double>(steady_reqs);
  }
  return r;
}

/// Sweep spec for a point: the sharded core, with servers folded onto at
/// most 8 server shards and windows widened up to 50 us beyond the wire
/// latency.
RunSpec spec_for(const Point& p) {
  RunSpec s;
  s.servers = p.servers;
  s.ranks = p.ranks;
  s.group_size = std::max(1, p.servers / 8);
  s.adaptive_us = 50.0;
  return s;
}

std::string key(const Point& p, const char* metric) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "p%dx%lld.%s", p.servers,
                static_cast<long long>(p.ranks), metric);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using ibridge::exp::require_int;
  bool full = false;
  bool check = false;
  int reps = 1;
  std::string point_sel;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--full") {
      full = true;
    } else if (a == "--check") {
      check = true;
    } else if (a == "--reps" && i + 1 < argc) {
      reps = static_cast<int>(
          require_int("bench_scale", "--reps", argv[++i], 1, 100));
    } else if (a == "--trace-allocs") {
      g_trace_allocs = true;
    } else if (a == "--point" && i + 1 < argc) {
      point_sel = argv[++i];
      if (point_sel != "small" && point_sel != "mid" && point_sel != "large") {
        std::fprintf(stderr, "bench_scale: unknown --point '%s'\n",
                     point_sel.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_scale [--full] [--reps N] [--check] "
                   "[--point small|mid|large]\n");
      return 2;
    }
  }

  std::vector<Point> points{{8, 1'000}, {64, 10'000}, {512, 100'000}};
  if (!point_sel.empty()) {
    // CI cells: one point per run keeps the job under its time budget; the
    // tracked baseline only pins the small point's model keys, so a subset
    // run still diffs cleanly.
    points = {point_sel == "small"  ? points[0]
              : point_sel == "mid"  ? points[1]
                                    : points[2]};
  }
  if (full) points.push_back({512, 1'000'000});

  ibridge::exp::Gauge g("scale");
  std::printf("scale campaign: per-rank streamed requests (%d/rank), shard "
              "groups, adaptive lookahead\n",
              kReqsPerRank);
  std::printf("  %-18s %12s %12s %12s %10s %12s\n", "point", "requests",
              "sim_s", "events", "wall_s", "ns/request");

  for (const Point& p : points) {
    const RunSpec spec = spec_for(p);
    RunResult best{};
    for (int rep = 0; rep < reps; ++rep) {
      const RunResult r = run_cell(spec, nullptr);
      if (rep == 0 || r.wall_s < best.wall_s) best = r;
    }
    const double ns_per_req =
        best.requests == 0
            ? 0.0
            : best.wall_s * 1e9 / static_cast<double>(best.requests);
    std::printf("  %6dsrv %8lldrk %12llu %12.3f %12llu %10.2f %12.1f\n",
                p.servers, static_cast<long long>(p.ranks),
                static_cast<unsigned long long>(best.requests),
                static_cast<double>(best.sim_ns) / 1e9,
                static_cast<unsigned long long>(best.events), best.wall_s,
                ns_per_req);
    g.set(key(p, "requests"), static_cast<double>(best.requests));
    g.set(key(p, "sim_seconds"), static_cast<double>(best.sim_ns) / 1e9);
    g.set(key(p, "client_bytes"), static_cast<double>(best.client_bytes));
    g.set(key(p, "served_bytes"), static_cast<double>(best.served_bytes));
    g.set(key(p, "events"), static_cast<double>(best.events));
    g.set_wall(key(p, "wall_s"), best.wall_s);
    g.set_wall(key(p, "ns_per_request"), ns_per_req);
  }
  g.set_wall("peak_rss_mb", ibridge::exp::peak_rss_mb());

  int rc = 0;
  if (check) {
    const Point small{8, 1'000};  // gates always run at the small point

    // 1. Classic vs grouped+adaptive sharded: timing-invariant checksums.
    RunSpec classic = spec_for(small);
    classic.shards = 0;
    classic.group_size = 1;
    classic.adaptive_us = 0.0;
    const RunResult rc_classic = run_cell(classic, nullptr);
    const RunResult rc_sharded = run_cell(spec_for(small), nullptr);
    const bool classic_match =
        rc_classic.requests == rc_sharded.requests &&
        rc_classic.client_bytes == rc_sharded.client_bytes &&
        rc_classic.served_bytes == rc_sharded.served_bytes;
    if (!classic_match) {
      std::fprintf(stderr,
                   "bench_scale: FAIL classic-vs-sharded checksums "
                   "(reqs %llu/%llu, client %lld/%lld, served %lld/%lld)\n",
                   static_cast<unsigned long long>(rc_classic.requests),
                   static_cast<unsigned long long>(rc_sharded.requests),
                   static_cast<long long>(rc_classic.client_bytes),
                   static_cast<long long>(rc_sharded.client_bytes),
                   static_cast<long long>(rc_classic.served_bytes),
                   static_cast<long long>(rc_sharded.served_bytes));
      rc = 1;
    }
    g.set("check.classic_match", classic_match ? 1.0 : 0.0);

    // 2. Allocation-free steady state on a stock cluster (no cache
    // daemons), classic core so the count sees only the serve path.
    // 48 requests/rank gives the warmup half a long runway: every pool,
    // ring, histogram lane, and scheduler map reaches its high-water mark
    // before the measured window opens.
    RunSpec stock = spec_for(small);
    stock.shards = 0;
    stock.adaptive_us = 0.0;
    stock.ibridge = false;
    stock.reqs_per_rank = 48;
    double steady = -1.0;
    run_cell(stock, &steady);
    if (steady != 0.0) {
      std::fprintf(stderr,
                   "bench_scale: FAIL steady-state allocation freedom "
                   "(%.6f allocs/request after warmup)\n",
                   steady);
      rc = 1;
    }
    g.set("check.steady_allocs_per_request", steady);
    std::printf("  --check: classic %s, steady allocs/req %.3f\n",
                classic_match ? "MATCH" : "MISMATCH", steady);
  }

  if (!g.write_file()) {
    std::fprintf(stderr, "warning: could not write BENCH_scale.json\n");
  }
  return rc;
}
