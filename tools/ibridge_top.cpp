// ibridge-top — live progress view of a simulated cluster run.
//
//   ibridge-top [stock|ibridge|ssd-only] [options]
//
//     --requests N     synchronous requests per rank          (default 32)
//     --k N            full 64 KB stripe units per request    (default 4)
//     --no-fragment    drop the trailing 1 KB (aligned control run)
//     --interval-ms M  snapshot cadence, simulated time       (default 200)
//     --wall           also attribute host CPU per subsystem
//
// Runs the Figure 3 magnification workload (workloads/magnification.hpp, as
// ibridge-trace does, untraced) with the sim-core profiler attached and
// prints a top-like snapshot every simulated interval until the run has
// drained: event throughput, event-queue depth, and a per-server table with
// served bytes and the sketch-backed service p50/p99 — the always-on tail
// latencies that cost O(1) memory per server.
// A final breakdown attributes the run's simulated (and, with --wall, host)
// time to client/server/cache/disk/ssd, plus the process's peak RSS.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "cluster/cluster.hpp"
#include "exp/cli.hpp"
#include "exp/gauge.hpp"
#include "obs/profiler.hpp"
#include "workloads/magnification.hpp"

using namespace ibridge;

namespace {

void print_snapshot(cluster::Cluster& c, const obs::SimProfiler& prof,
                    const exp::Stopwatch& wall, std::uint64_t* last_events,
                    double* last_wall) {
  const double secs = wall.seconds();
  const std::uint64_t events = prof.events_total();
  const double evps = secs > *last_wall
                          ? static_cast<double>(events - *last_events) /
                                (secs - *last_wall)
                          : 0.0;
  *last_events = events;
  *last_wall = secs;

  std::printf(
      "\n[t=%9.1f ms] events %10llu (%8.0f ev/s wall)  queue %zu "
      "(mean %.1f, peak %zu)  client MB %.1f\n",
      c.sim().now().to_millis(), static_cast<unsigned long long>(events),
      evps, prof.queue_depth_last(), prof.queue_depth_mean(),
      prof.queue_depth_peak(),
      static_cast<double>(c.client().bytes_completed()) / 1e6);
  std::printf("  %-5s %10s %10s %10s %10s %10s\n", "srv", "served MB",
              "p50 ms", "p99 ms", "mean ms", "heat ops");
  for (int i = 0; i < c.server_count(); ++i) {
    const auto& m = c.server(i).service_meter();
    std::printf("  %-5d %10.1f %10.3f %10.3f %10.3f %10llu\n", i,
                static_cast<double>(c.server(i).bytes_served().count()) / 1e6,
                m.p50_ms(), m.p99_ms(), m.mean_ms(),
                static_cast<unsigned long long>(
                    prof.heat_ops(static_cast<std::size_t>(i))));
  }
}

/// Prints a snapshot every interval for as long as the run has other work
/// queued; once only the ticker is left (the workload finished and the
/// cluster drained), it stops re-arming so the event queue can empty.
struct Ticker {
  cluster::Cluster& c;
  const obs::SimProfiler& prof;
  const exp::Stopwatch& wall;
  sim::SimTime interval;
  std::uint64_t last_events = 0;
  double last_wall = 0.0;

  void arm() {
    c.sim().schedule(interval, [this] {
      if (c.sim().empty()) return;
      print_snapshot(c, prof, wall, &last_events, &last_wall);
      arm();
    });
  }
};

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "stock";
  std::int64_t requests = 32;
  int k = 4;
  bool fragment = true;
  bool wall_attr = false;
  std::int64_t interval_ms = 200;

  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "stock" || a == "ibridge" || a == "ssd-only") {
      mode = a;
    } else if (a == "--requests") {
      requests =
          exp::require_int("ibridge-top", "--requests", next(), 1, 100000000);
    } else if (a == "--k") {
      k = static_cast<int>(exp::require_int("ibridge-top", "--k", next(), 1, 7));
    } else if (a == "--no-fragment") {
      fragment = false;
    } else if (a == "--wall") {
      wall_attr = true;
    } else if (a == "--interval-ms") {
      interval_ms =
          exp::require_int("ibridge-top", "--interval-ms", next(), 1, 1000000);
    } else {
      std::fprintf(stderr,
                   "usage: ibridge-top [stock|ibridge|ssd-only] "
                   "[--requests N] [--k N] [--no-fragment] [--wall] "
                   "[--interval-ms M]\n");
      return 2;
    }
  }

  cluster::ClusterConfig cc;
  if (mode == "ibridge") {
    cc = cluster::ClusterConfig::with_ibridge();
  } else if (mode == "ssd-only") {
    cc = cluster::ClusterConfig::ssd_only();
  } else {
    cc = cluster::ClusterConfig::stock();
  }

  cluster::Cluster c(cc);
  obs::SimProfiler prof(/*enable_wall_timing=*/wall_attr);
  c.set_profiler(&prof);

  workloads::MagnificationConfig wl;
  wl.k = k;
  wl.fragment = fragment;
  wl.requests = requests;
  const std::int64_t req_size = wl.request_bytes(cc.stripe_unit);
  std::printf("ibridge-top: %s, %d servers, 16 ranks x %lld requests of "
              "%lld bytes%s\n",
              mode.c_str(), cc.data_servers, static_cast<long long>(requests),
              static_cast<long long>(req_size),
              fragment ? " (1 KB fragment on server k)" : "");

  const exp::Stopwatch wall;
  Ticker ticker{c, prof, wall, sim::SimTime::millis(interval_ms)};
  ticker.arm();

  workloads::run_magnification(c, wl);

  print_snapshot(c, prof, wall, &ticker.last_events, &ticker.last_wall);

  std::printf("\nwhere the time went (simulated%s):\n",
              wall_attr ? " + host" : "");
  std::printf("  %-10s %12s %14s", "category", "events", "model ms");
  if (wall_attr) std::printf(" %14s", "host ms");
  std::printf("\n");
  for (std::size_t cat = 0; cat < prof.category_count(); ++cat) {
    const int ci = static_cast<int>(cat);
    std::printf("  %-10s %12llu %14.3f", prof.category_name(ci),
                static_cast<unsigned long long>(prof.events(ci)),
                static_cast<double>(prof.model_ns(ci)) / 1e6);
    if (wall_attr) {
      std::printf(" %14.3f", static_cast<double>(prof.wall_ns(ci)) / 1e6);
    }
    std::printf("\n");
  }
  std::printf("\nwall %.2f s, peak RSS %.1f MB\n", wall.seconds(),
              exp::peak_rss_mb());
  return 0;
}
