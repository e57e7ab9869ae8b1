// Randomized-mix comparison built on the SimCheck generator: each seeded
// case draws a cluster geometry, iBridge knobs, and an interleaved
// unaligned read/write trace, then runs it under the three storage
// policies.  Unlike the paper figures (one workload shape each), this
// reports how the policies rank across a *population* of adversarial
// mixes, and doubles as a cheap payload-equivalence sweep: every case is
// checked with the full differential oracle.
//
// Cases are independent (fresh clusters per case), so --jobs N fans them
// over an exp::Runner pool; aggregation happens in seed order, making the
// table and BENCH_fuzzmix.json model metrics identical at every N.
#include <algorithm>

#include "bench/bench_common.hpp"
#include "check/differential.hpp"
#include "check/generator.hpp"
#include "exp/gauge.hpp"
#include "exp/runner.hpp"
#include "stats/table.hpp"

using namespace ibridge;
using namespace ibridge::bench;
using namespace ibridge::check;

int main(int argc, char** argv) {
  const Scale scale = Scale::parse(argc, argv);
  const int cases = scale.trace_requests >= 20'000 ? 60 : 12;

  banner("FuzzMix", "policy comparison over SimCheck-generated workloads");

  exp::Stopwatch sw;
  exp::Runner runner(scale.jobs);
  struct CaseOut {
    DiffReport d;
    std::int64_t bytes = 0;
    unsigned long long seed = 0;
  };
  const auto outs = runner.map<CaseOut>(cases, [&](int i) {
    CaseOut o;
    const FuzzCase c = generate_case(0xF022ULL + static_cast<std::uint64_t>(i));
    o.seed = static_cast<unsigned long long>(c.seed);
    o.d = run_differential(c);
    for (const auto& r : c.trace) o.bytes += std::min(r.size, c.file_bytes);
    return o;
  });

  double disk_s = 0, ib_s = 0, ssd_s = 0;
  std::uint64_t requests = 0;
  std::int64_t bytes = 0;
  double worst_gap = 0.0;
  int failures = 0;
  std::uint64_t sim_events = 0;
  for (const CaseOut& o : outs) {
    if (!o.d.ok()) {
      std::printf("  case seed %llu FAILED: %s\n", o.seed,
                  o.d.failure.c_str());
      ++failures;
      continue;
    }
    disk_s += o.d.disk.total_elapsed.to_seconds();
    ib_s += o.d.ibridge.total_elapsed.to_seconds();
    ssd_s += o.d.ssd.total_elapsed.to_seconds();
    requests += o.d.ibridge.requests;
    bytes += o.bytes;
    worst_gap = std::max(worst_gap, o.d.max_rel_time_gap);
    sim_events += o.d.disk.events + o.d.ibridge.events + o.d.ssd.events;
  }

  stats::Table t({"policy", "total time (s)", "MB/s", "vs disk"});
  const auto row = [&](const char* name, double s) {
    t.add_row({name, stats::Table::fmt("%.3f", s),
               stats::Table::fmt("%.1f",
                                 s > 0 ? static_cast<double>(bytes) / 1e6 / s
                                       : 0.0),
               stats::Table::fmt("%.2fx", s > 0 ? disk_s / s : 0.0)});
  };
  row("disk-only", disk_s);
  row("ibridge", ib_s);
  row("ssd-only", ssd_s);
  t.print();
  std::printf("    %d cases, %llu requests, payload equivalence held on "
              "%d/%d; max per-case divergence %.2fx\n",
              cases, static_cast<unsigned long long>(requests),
              cases - failures, cases, 1.0 + worst_gap);
  footnote();

  const double wall_s = sw.seconds();
  exp::Gauge g("fuzzmix");
  g.set("cases", cases);
  g.set("failures", failures);
  g.set("requests", static_cast<double>(requests));
  g.set("bytes", static_cast<double>(bytes));
  g.set("sim.disk_s", disk_s);
  g.set("sim.ibridge_s", ib_s);
  g.set("sim.ssd_s", ssd_s);
  g.set("sim.events", static_cast<double>(sim_events));
  g.set("worst_gap", worst_gap);
  g.set_wall("seconds", wall_s);
  g.set_wall("jobs", scale.jobs);
  g.set_wall("events_per_sec",
             wall_s > 0 ? static_cast<double>(sim_events) / wall_s : 0.0);
  if (!g.write_file()) {
    std::fprintf(stderr, "warning: could not write BENCH_fuzzmix.json\n");
  }

  return failures == 0 ? 0 : 1;
}
