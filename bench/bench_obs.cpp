// bench_obs — bounded-memory observability gauge.
//
// Proves the three headline properties of the always-on observability
// stack, and measures what they cost:
//
//   1. Accuracy/memory: QuantileSketch vs the exact Histogram over three
//      adversarial sample streams (constant, bimodal latency, heavy-tail).
//      Sketch percentiles must land within the sketch's relative error
//      (1/kBucketsPerOctave) of the exact answer while holding the 64 KiB
//      per-metric budget.  ns/sample for both goes into the wall section.
//
//   2. Timeline identity: the unaligned Figure-3-style workload is run
//      untraced, fully traced, and with a SimProfiler attached — the
//      simulated completion time must be byte-identical across all three
//      (instrumentation never perturbs the model).
//
//   3. Parallel determinism: sketches built under exp::Runner produce
//      byte-identical percentiles + digests at --jobs 1 and --jobs N.
//
//   bench_obs [--samples N] [--reps N] [--check]
//
// --check exits 1 unless all three properties hold (the CI bench-gauge
// job runs this).  Emits BENCH_obs.json; deterministic results go in the
// model section, host-dependent ones (ns/sample, bytes, peak RSS) under
// wall.
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "exp/cli.hpp"
#include "exp/gauge.hpp"
#include "exp/runner.hpp"
#include "mpiio/mpi.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"
#include "stats/histogram.hpp"
#include "stats/sketch.hpp"

namespace {

using ibridge::exp::Gauge;
using ibridge::exp::Runner;
using ibridge::exp::Stopwatch;
using ibridge::obs::SimProfiler;
using ibridge::obs::TraceSession;
using ibridge::stats::Histogram;
using ibridge::stats::QuantileSketch;

// ------------------------------------------------ adversarial streams ----

struct Distribution {
  const char* name;
  double (*draw)(ibridge::sim::Rng&);
};

double draw_constant(ibridge::sim::Rng&) { return 42.0; }

// Two latency modes an order of magnitude apart — cache hit vs disk miss.
double draw_bimodal(ibridge::sim::Rng& rng) {
  return rng.below(3) == 0 ? 100.0 + 10.0 * rng.uniform01()
                           : 1.0 + rng.uniform01();
}

// Twenty octaves of spread: queueing tails, GC pauses, stragglers.
double draw_heavy_tail(ibridge::sim::Rng& rng) {
  return std::ldexp(1.0, static_cast<int>(rng.below(20))) *
         (1.0 + rng.uniform01());
}

const Distribution kDistributions[] = {
    {"constant", draw_constant},
    {"bimodal", draw_bimodal},
    {"heavy_tail", draw_heavy_tail},
};

constexpr double kPercentiles[] = {50.0, 95.0, 99.0};
constexpr std::size_t kMemoryBudget = 64 * 1024;  // bytes per metric

struct DistResult {
  double exact_p[3] = {};
  double sketch_p[3] = {};
  double sketch_rel_err = 0.0;  // worst observed across the percentiles
  std::size_t sketch_bytes = 0;
  std::size_t exact_bytes = 0;
  std::uint64_t digest = 0;
  double ns_exact = 0.0;
  double ns_sketch = 0.0;
};

DistResult measure_distribution(const Distribution& dist, std::int64_t n,
                                int reps) {
  DistResult r;
  Histogram exact;
  QuantileSketch sketch;
  {
    ibridge::sim::Rng rng(0xd15e);
    for (std::int64_t i = 0; i < n; ++i) {
      const double x = dist.draw(rng);
      exact.add(x);
      sketch.add(x);
    }
  }
  for (int p = 0; p < 3; ++p) {
    r.exact_p[p] = exact.percentile(kPercentiles[p]);
    r.sketch_p[p] = sketch.percentile(kPercentiles[p]);
    const double denom = std::abs(r.exact_p[p]);
    const double err = denom > 0.0
                           ? std::abs(r.sketch_p[p] - r.exact_p[p]) / denom
                           : std::abs(r.sketch_p[p] - r.exact_p[p]);
    if (err > r.sketch_rel_err) r.sketch_rel_err = err;
  }
  r.sketch_bytes = sketch.memory_bytes();
  r.exact_bytes = sizeof(Histogram) + exact.count() * sizeof(double);
  r.digest = sketch.digest();

  // ns/sample per backend: feed a fresh instance per rep, keep the
  // fastest rep (least-noise estimator for a deterministic stream).
  const auto time_adds = [&](auto& make, auto& feed) {
    double best = 0.0;
    for (int rep = 0; rep < reps; ++rep) {
      auto sink = make();
      ibridge::sim::Rng rng(0xd15e);
      Stopwatch sw;
      for (std::int64_t i = 0; i < n; ++i) feed(sink, dist.draw(rng));
      const double s = sw.seconds();
      if (rep == 0 || s < best) best = s;
    }
    return best * 1e9 / static_cast<double>(n);
  };
  auto make_exact = [] { return Histogram(); };
  auto make_sketch = [] { return QuantileSketch(); };
  auto feed = [](auto& sink, double x) { sink.add(x); };
  r.ns_exact = time_adds(make_exact, feed);
  r.ns_sketch = time_adds(make_sketch, feed);
  return r;
}

// ------------------------------------------------- timeline identity ----

ibridge::sim::Task<> reader(ibridge::mpiio::MpiContext ctx,
                            ibridge::mpiio::MpiFile file,
                            std::int64_t iters) {
  for (std::int64_t k = 0; k < iters; ++k) {
    const std::int64_t off =
        (k * ctx.size() + ctx.rank()) * (8LL << 16);
    co_await file.read_at(ctx.rank(), off, 65 * 1024);
    co_await ctx.barrier();
  }
}

enum class Mode { kUntraced, kFull, kProfiled };

std::int64_t run_unaligned_ns(Mode mode) {
  ibridge::cluster::Cluster c(
      ibridge::cluster::ClusterConfig::with_ibridge());
  TraceSession session(c.sim());
  SimProfiler prof;
  switch (mode) {
    case Mode::kUntraced:
      break;
    case Mode::kFull:
      c.set_trace(&session);
      break;
    case Mode::kProfiled:
      c.set_profiler(&prof);
      break;
  }
  auto fh = c.create_file("data", 2LL << 30);
  ibridge::mpiio::MpiFile file(c.client(), fh);
  ibridge::mpiio::MpiEnvironment group(c.sim(), c.client(), 8);
  group.launch([&](ibridge::mpiio::MpiContext ctx) {
    return reader(ctx, file, 4);
  });
  c.sim().run_while_pending([&] { return group.finished(); });
  const std::int64_t flushed_ns = c.drain().ns();
  if (mode == Mode::kProfiled) c.set_profiler(nullptr);
  return flushed_ns;
}

// ---------------------------------------------- parallel determinism ----

std::string sketch_batch(int jobs) {
  Runner r(jobs);
  const auto cells = r.map<std::string>(6, [](int i) {
    QuantileSketch lat_ms, tail_ms;
    ibridge::sim::Rng rng(0xc0ffee + static_cast<std::uint64_t>(i));
    for (int k = 0; k < 20000; ++k) {
      lat_ms.add(draw_bimodal(rng));
      tail_ms.add(draw_heavy_tail(rng));
    }
    std::ostringstream os;
    for (const QuantileSketch* sk : {&lat_ms, &tail_ms}) {
      os << sk->count() << ',' << sk->mean();
      for (const double p : kPercentiles) os << ',' << sk->percentile(p);
      os << ',' << sk->max() << '#' << sk->digest() << '\n';
    }
    return os.str();
  });
  std::string all;
  for (const std::string& s : cells) all += s;
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  using ibridge::exp::require_int;
  std::int64_t samples = 200'000;
  int reps = 3;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_obs: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--samples") {
      samples =
          require_int("bench_obs", "--samples", next(), 1000, 100'000'000);
    } else if (a == "--reps") {
      reps = static_cast<int>(require_int("bench_obs", "--reps", next(), 1,
                                          100));
    } else if (a == "--check") {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_obs [--samples N] [--reps N] [--check]\n");
      return 2;
    }
  }

  Stopwatch total;
  Gauge g("obs");
  g.set("samples", static_cast<double>(samples));
  bool ok = true;

  // 1. Sketch accuracy and memory over the adversarial streams.
  const double budget_rel = QuantileSketch().relative_error();
  std::printf("quantile backends, %lld samples/stream (rel-err budget "
              "%.4f, memory budget %zu KiB)\n",
              static_cast<long long>(samples), budget_rel,
              kMemoryBudget / 1024);
  for (const Distribution& dist : kDistributions) {
    const DistResult r = measure_distribution(dist, samples, reps);
    const bool within_err = r.sketch_rel_err <= budget_rel + 1e-12;
    const bool within_mem = r.sketch_bytes <= kMemoryBudget;
    ok = ok && within_err && within_mem;
    std::printf(
        "  %-10s p99 exact %10.3f sketch %10.3f  rel-err %.5f  "
        "sketch %5zu B vs exact %8zu B  [%s]\n",
        dist.name, r.exact_p[2], r.sketch_p[2], r.sketch_rel_err,
        r.sketch_bytes, r.exact_bytes,
        within_err && within_mem ? "ok" : "FAIL");
    const std::string p = std::string("sketch.") + dist.name + ".";
    for (int i = 0; i < 3; ++i) {
      g.set(p + "p" + std::to_string(static_cast<int>(kPercentiles[i])),
            r.sketch_p[i]);
    }
    g.set(p + "rel_err", r.sketch_rel_err);
    g.set(p + "digest.lo", static_cast<double>(r.digest & 0xffffffffULL));
    g.set(p + "digest.hi", static_cast<double>(r.digest >> 32));
    g.set(p + "memory_ok", within_mem ? 1.0 : 0.0);
    g.set_wall(p + "bytes", static_cast<double>(r.sketch_bytes));
    g.set_wall(p + "exact_bytes", static_cast<double>(r.exact_bytes));
    g.set_wall(p + "ns_exact", r.ns_exact);
    g.set_wall(p + "ns_sketch", r.ns_sketch);
  }

  // 2. Instrumentation must not perturb the simulated timeline.
  const std::int64_t untraced = run_unaligned_ns(Mode::kUntraced);
  const std::int64_t full = run_unaligned_ns(Mode::kFull);
  const std::int64_t profiled = run_unaligned_ns(Mode::kProfiled);
  const bool timeline_ok =
      untraced == full && untraced == profiled;
  ok = ok && timeline_ok;
  std::printf("timeline: untraced %.3f ms, full %+" PRId64
              " ns, profiled %+" PRId64 " ns  [%s]\n",
              static_cast<double>(untraced) / 1e6, full - untraced,
              profiled - untraced,
              timeline_ok ? "ok" : "FAIL");
  g.set("timeline.untraced_ms", static_cast<double>(untraced) / 1e6);
  g.set("timeline.identical", timeline_ok ? 1.0 : 0.0);

  // 3. Sketch output is byte-identical across Runner worker counts.
  const std::string serial = sketch_batch(1);
  const std::string parallel = sketch_batch(Runner::default_jobs());
  const bool jobs_ok = serial == parallel;
  ok = ok && jobs_ok;
  std::printf("parallel determinism: jobs 1 vs %d sketches %s\n",
              Runner::default_jobs(), jobs_ok ? "identical [ok]" : "DIFFER");
  g.set("sketch.jobs_invariant", jobs_ok ? 1.0 : 0.0);

  g.set_wall("seconds", total.seconds());
  g.set_wall("peak_rss_mb", ibridge::exp::peak_rss_mb());
  if (!g.write_file()) {
    std::fprintf(stderr, "warning: could not write BENCH_obs.json\n");
  }

  if (check && !ok) {
    std::fprintf(stderr, "bench_obs: FAIL --check\n");
    return 1;
  }
  return 0;
}
