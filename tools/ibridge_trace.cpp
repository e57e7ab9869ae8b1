// ibridge-trace — run an unaligned parallel workload under full request
// tracing and the sim-core profiler, and export the results.
//
//   ibridge-trace [stock|ibridge|ssd-only] [options]
//
//     --requests N     synchronous requests per rank          (default 8)
//     --k N            full 64 KB stripe units per request    (default 4)
//     --no-fragment    drop the trailing 1 KB (aligned control run)
//     --out FILE       Chrome trace-event JSON                (default trace.json)
//     --csv FILE       metrics time-series CSV                (off by default)
//     --metrics FILE   end-of-run metrics CSV                 (off by default)
//     --top N          rows in the straggler report           (default 10)
//     --interval-ms M  metrics sampling cadence, sim time     (default 50)
//     --wall           also attribute host CPU per subsystem, and print
//                      the run's wall time and peak RSS
//
// The workload (workloads/magnification.hpp) reproduces the Figure 3
// magnification scenario: a 16-process group reads k*64KB+1KB requests (the
// 1 KB fragment lands on server k) while a 4-process group hammers server k
// with random 64 KB reads.  The straggler report then shows each request's
// per-layer latency breakdown and magnification factor (slowest / median
// sibling sub-request); with the fragment enabled, the fragment sub-requests
// dominate the stragglers.  A "where the time went" table then attributes
// the run's events and simulated (with --wall, also host) time to
// client/server/cache/disk/ssd; the --csv series carries the same
// profiler rows (sim.*, prof.*) per interval, next to every server's
// served bytes and service-time tails.
//
// Open the JSON in https://ui.perfetto.dev or chrome://tracing.
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>

#include "cluster/cluster.hpp"
#include "exp/cli.hpp"
#include "exp/gauge.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "workloads/magnification.hpp"

using namespace ibridge;

namespace {

bool write_file(const std::string& path, const char* what,
                const std::function<void(std::ostream&)>& body) {
  std::ofstream os(path);
  if (!os) {
    std::fprintf(stderr, "cannot open %s for %s\n", path.c_str(), what);
    return false;
  }
  body(os);
  std::printf("wrote %s: %s\n", what, path.c_str());
  return true;
}

void print_profile(const obs::SimProfiler& prof) {
  const bool wall = prof.wall_timing_enabled();
  std::printf("\nwhere the time went (simulated%s):\n", wall ? " + host" : "");
  std::printf("  %-10s %12s %14s", "category", "events", "model ms");
  if (wall) std::printf(" %14s", "host ms");
  std::printf("\n");
  for (std::size_t cat = 0; cat < prof.category_count(); ++cat) {
    const int ci = static_cast<int>(cat);
    std::printf("  %-10s %12llu %14.3f", prof.category_name(ci),
                static_cast<unsigned long long>(prof.events(ci)),
                static_cast<double>(prof.model_ns(ci)) / 1e6);
    if (wall) {
      std::printf(" %14.3f", static_cast<double>(prof.wall_ns(ci)) / 1e6);
    }
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string mode = "stock";
  std::string out = "trace.json";
  std::string csv, metrics_out;
  std::int64_t requests = 8;
  int k = 4;
  bool fragment = true;
  bool wall = false;
  std::size_t top = 10;
  std::int64_t interval_ms = 50;

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
      requests = exp::require_int("ibridge-trace", "--requests", next(), 1,
                                  100000000);
    } else if (a == "--k") {
      k = static_cast<int>(
          exp::require_int("ibridge-trace", "--k", next(), 1, 7));
    } else if (a == "--no-fragment") {
      fragment = false;
    } else if (a == "--wall") {
      wall = true;
    } else if (a == "--out") {
      out = next();
    } else if (a == "--csv") {
      csv = next();
    } else if (a == "--metrics") {
      metrics_out = next();
    } else if (a == "--top") {
      top = static_cast<std::size_t>(
          exp::require_int("ibridge-trace", "--top", next(), 0, 1000000));
    } else if (a == "--interval-ms") {
      interval_ms = exp::require_int("ibridge-trace", "--interval-ms", next(),
                                     1, 1000000);
    } else {
      std::fprintf(stderr,
                   "usage: ibridge-trace [stock|ibridge|ssd-only] "
                   "[--requests N] [--k N] [--no-fragment] [--wall] "
                   "[--out FILE] [--csv FILE] [--metrics FILE] [--top N] "
                   "[--interval-ms M]\n");
      return 2;
    }
  }
  if (requests <= 0 || k <= 0 || k > 7 || interval_ms <= 0) {
    std::fprintf(stderr, "invalid --requests/--k/--interval-ms\n");
    return 2;
  }

  cluster::ClusterConfig cc;
  if (mode == "ibridge") {
    cc = cluster::ClusterConfig::with_ibridge();
  } else if (mode == "ssd-only") {
    cc = cluster::ClusterConfig::ssd_only();
  } else {
    cc = cluster::ClusterConfig::stock();
  }

  const exp::Stopwatch stopwatch;
  cluster::Cluster c(cc);
  obs::TraceSession session(c.sim());
  c.set_trace(&session);
  obs::SimProfiler prof(/*enable_wall_timing=*/wall);
  c.set_profiler(&prof);
  obs::TimeSeries series;
  c.start_metrics_sampler(sim::SimTime::millis(interval_ms), &series);

  workloads::MagnificationConfig wl;
  wl.k = k;
  wl.fragment = fragment;
  wl.requests = requests;
  const std::int64_t req_size = wl.request_bytes(cc.stripe_unit);
  std::printf("ibridge-trace: %s, %d servers, 16 ranks x %lld requests of "
              "%lld bytes%s\n",
              mode.c_str(), cc.data_servers, static_cast<long long>(requests),
              static_cast<long long>(req_size),
              fragment ? " (1 KB fragment on server k)" : "");

  const workloads::WorkloadResult run = workloads::run_magnification(c, wl);

  obs::write_straggler_report(std::cout, session, top);
  std::printf("\nspans recorded: %zu over %llu traced requests\n",
              session.spans().size(),
              static_cast<unsigned long long>(session.requests_traced()));
  // The workload's own end times: sim().now() after drain() also counts
  // the idle daemon wake-ups that drain() runs down.
  std::printf("simulated end: access phase %.3f ms, write-back drain %.3f ms\n",
              run.io_elapsed.to_millis(), run.elapsed.to_millis());
  print_profile(prof);
  if (wall) {
    std::printf("\nwall %.2f s, peak RSS %.1f MB\n", stopwatch.seconds(),
                exp::peak_rss_mb());
  }

  if (!write_file(out, "chrome trace", [&](std::ostream& os) {
        obs::write_chrome_trace(os, session);
      })) {
    return 1;
  }
  if (!csv.empty() &&
      !write_file(csv, "metrics time series",
                  [&](std::ostream& os) { series.write_csv(os); })) {
    return 1;
  }
  if (!metrics_out.empty()) {
    obs::MetricsRegistry reg;
    c.collect_metrics(reg);
    if (!write_file(metrics_out, "metrics",
                    [&](std::ostream& os) { reg.write_csv(os); })) {
      return 1;
    }
  }
  return 0;
}
