// Fault-scenario gauge: the same SimCheck-generated workload population
// replayed on iBridge clusters under three conditions — healthy, GC
// interference (churn-triggered pauses + per-read latency variability),
// and a data-server crash/restart mid-write-back — reporting mean
// ns/request and the straggler p99 for each column.  Every injected delay
// and crash instant derives from the case seed, so the "model" section is
// deterministic and tracked by bench/baselines/ + scripts/bench-diff.
//
// Cases are independent (fresh cluster + fault engine per case), so
// --jobs N fans them over an exp::Runner pool; aggregation commits in
// submission order and the gauge is identical at every N.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.hpp"
#include "check/generator.hpp"
#include "cluster/cluster.hpp"
#include "exp/gauge.hpp"
#include "exp/runner.hpp"
#include "fault/engine.hpp"
#include "sim/task.hpp"
#include "stats/table.hpp"

using namespace ibridge;
using namespace ibridge::bench;

namespace {

constexpr std::uint64_t kSeed0 = 0xbe9cfa17ULL;
constexpr fault::Scenario kScenarios[] = {fault::Scenario::kHealthy,
                                          fault::Scenario::kGcInterference,
                                          fault::Scenario::kCrashRestart};

struct CaseOut {
  std::vector<std::int64_t> lat_ns;
  std::int64_t bytes = 0;
  fault::FaultEngine::Stats fstats;
  std::string failure;
};

sim::Task<> drive(cluster::Cluster& cl, const check::FuzzCase& c,
                  pvfs::FileHandle fh, CaseOut& o, bool& done) {
  std::vector<std::byte> buf;
  for (std::size_t i = 0; i < c.trace.size(); ++i) {
    const auto& rec = c.trace[i];
    const std::int64_t size = std::min(rec.size, c.file_bytes);
    const std::int64_t off =
        std::clamp<std::int64_t>(rec.offset, 0, c.file_bytes - size);
    buf.assign(static_cast<std::size_t>(size), std::byte{0});
    const sim::SimTime t0 = cl.sim().now();
    if (rec.write) {
      check::fill_payload(buf, check::record_seed(c.seed, i));
      co_await cl.client().write_at(0, fh, off, size, buf);
    } else {
      co_await cl.client().read_at(0, fh, off, size, buf);
    }
    o.lat_ns.push_back((cl.sim().now() - t0).ns());
    o.bytes += size;
  }
  done = true;
}

CaseOut run_one(std::uint64_t seed, fault::Scenario scen) {
  CaseOut o;
  check::FuzzCase c = check::generate_case(seed);
  c.faults = fault::make_scenario(scen, c.base.data_servers, seed,
                                  sim::SimTime::millis(40));

  cluster::Cluster cl(check::make_config(c, check::Policy::kIBridge));
  cl.restart_daemons();
  const pvfs::FileHandle fh = cl.create_file("bench-faults.dat", c.file_bytes);

  std::unique_ptr<fault::FaultEngine> engine;
  if (!c.faults.empty()) {
    engine = std::make_unique<fault::FaultEngine>(cl, c.faults);
    engine->start();
  }

  bool done = false;
  auto io = drive(cl, c, fh, o, done);
  io.start();
  cl.sim().run_while_pending([&] { return done; });
  if (engine != nullptr) {
    cl.sim().run_while_pending([&] { return engine->done(); });
    o.fstats = engine->stats();
    o.failure = engine->failure();
  }
  cl.drain();
  return o;
}

double p99_ns(std::vector<std::int64_t> lat) {
  if (lat.empty()) return 0.0;
  std::sort(lat.begin(), lat.end());
  const std::size_t idx =
      std::min(lat.size() - 1, lat.size() * 99 / 100);
  return static_cast<double>(lat[idx]);
}

}  // namespace

int main(int argc, char** argv) {
  const Scale scale = Scale::parse(argc, argv);
  const int cases = scale.trace_requests >= 20'000 ? 24 : 6;
  const int scenarios = static_cast<int>(std::size(kScenarios));

  banner("Faults",
         "healthy vs GC-interference vs crash/restart on one workload "
         "population");

  exp::Stopwatch sw;
  exp::Runner runner(scale.jobs);
  // Same case seeds for every scenario, so the columns differ only in the
  // injected faults.
  const auto outs = runner.map<CaseOut>(scenarios * cases, [&](int i) {
    const auto scen = kScenarios[static_cast<std::size_t>(i / cases)];
    return run_one(kSeed0 + static_cast<std::uint64_t>(i % cases), scen);
  });

  exp::Gauge g("faults");
  stats::Table t({"scenario", "ns/request", "p99 (us)", "vs healthy",
                  "gc pauses", "crashes"});
  double healthy_mean = 0.0;
  int failures = 0;
  std::uint64_t requests = 0;
  for (int s = 0; s < scenarios; ++s) {
    std::vector<std::int64_t> lat;
    fault::FaultEngine::Stats fs;
    for (int k = 0; k < cases; ++k) {
      const CaseOut& o = outs[static_cast<std::size_t>(s * cases + k)];
      if (!o.failure.empty()) {
        std::printf("  case %d FAILED: %s\n", k, o.failure.c_str());
        ++failures;
      }
      lat.insert(lat.end(), o.lat_ns.begin(), o.lat_ns.end());
      fs.crashes += o.fstats.crashes;
      fs.recoveries += o.fstats.recoveries;
      fs.degraded_flushes += o.fstats.degraded_flushes;
      fs.gc_pauses += o.fstats.gc_pauses;
      fs.slow_reads += o.fstats.slow_reads;
    }
    std::int64_t total = 0;
    for (std::int64_t v : lat) total += v;
    const double mean =
        lat.empty() ? 0.0
                    : static_cast<double>(total) /
                          static_cast<double>(lat.size());
    const double p99 = p99_ns(lat);
    if (s == 0) healthy_mean = mean;
    const char* name = fault::to_string(kScenarios[static_cast<std::size_t>(s)]);
    requests += lat.size();

    t.add_row({name, stats::Table::fmt("%.0f", mean),
               stats::Table::fmt("%.1f", p99 / 1000.0),
               stats::Table::fmt("%.2fx",
                                 healthy_mean > 0 ? mean / healthy_mean : 0.0),
               std::to_string(fs.gc_pauses), std::to_string(fs.crashes)});
    const std::string prefix = name;
    g.set(prefix + ".ns_per_req", mean);
    g.set(prefix + ".p99_ns", p99);
    if (fs.gc_pauses > 0) {
      g.set(prefix + ".gc_pauses", static_cast<double>(fs.gc_pauses));
      g.set(prefix + ".slow_reads", static_cast<double>(fs.slow_reads));
    }
    if (fs.crashes > 0) {
      g.set(prefix + ".crashes", static_cast<double>(fs.crashes));
      g.set(prefix + ".recoveries", static_cast<double>(fs.recoveries));
      g.set(prefix + ".degraded_flushes",
            static_cast<double>(fs.degraded_flushes));
    }
  }
  t.print();
  std::printf("    %d cases/scenario, %llu requests total; every injected "
              "pause and crash derives from the case seed\n",
              cases, static_cast<unsigned long long>(requests));
  footnote();

  g.set("cases", cases);
  g.set("failures", failures);
  g.set("requests", static_cast<double>(requests));
  g.set_wall("seconds", sw.seconds());
  g.set_wall("jobs", scale.jobs);
  if (!g.write_file()) {
    std::fprintf(stderr, "warning: could not write BENCH_faults.json\n");
  }
  return failures == 0 ? 0 : 1;
}
