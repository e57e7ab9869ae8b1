// bench_paper — regenerates every table and figure of the paper's
// evaluation (Table I through Fig. 13), plus the ablation, middleware
// baseline, PLFS, fuzz-mix and fault studies, printing each next to the
// paper's published numbers.  Absolute MB/s are model-calibrated, not
// testbed-identical; EXPERIMENTS.md records the deltas.
//
//   bench_paper [--full] [--jobs N] [figure...]
//
// Figure ids: table1 fig2 fig3 table2 fig4 (with Fig. 5) fig6 fig7 fig8
// fig9 (with Fig. 10) fig11 table3 fig12 fig13 ablation baselines plfs
// fuzzmix faults.  Without ids every figure runs.  --full runs the paper's
// full 10 GB sweeps, 40 BTIO steps and larger trace and case counts (slow);
// the default accesses a smaller slice so the whole suite finishes in
// seconds, and shapes are unaffected because throughput is steady-state.
//
// A figure is a list of cells plus a render step.  A cell is one run on
// fresh simulated state that returns named numbers.  Every cell of every
// selected figure runs in one exp::Runner batch of --jobs N threads and is
// committed by index, so stdout and the model section of each
// BENCH_<name>.json are identical at every N.  The render steps then print
// the figures in paper order and fill their gauges; a gauge's wall section
// holds the host seconds of its figure's cells.  Figures 9 and 10 share one
// BTIO grid, so no BTIO cell runs twice.  The fuzz-mix and fault studies
// check every case they run; the run exits 1 when a gauge records failures.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "check/differential.hpp"
#include "check/generator.hpp"
#include "cluster/cluster.hpp"
#include "exp/cli.hpp"
#include "exp/gauge.hpp"
#include "exp/runner.hpp"
#include "fault/engine.hpp"
#include "mpiio/collective.hpp"
#include "mpiio/mpi.hpp"
#include "obs/metrics.hpp"
#include "plfs/plfs.hpp"
#include "sim/rng.hpp"
#include "stats/table.hpp"
#include "storage/calibration.hpp"
#include "storage/hdd.hpp"
#include "storage/ssd.hpp"
#include "workloads/btio.hpp"
#include "workloads/ior_mpi_io.hpp"
#include "workloads/magnification.hpp"
#include "workloads/mpi_io_test.hpp"
#include "workloads/trace.hpp"

using namespace ibridge;
using stats::Table;

namespace {

constexpr std::int64_t kMB = 1000 * 1000;
constexpr std::int64_t kGB = 1000 * kMB;

/// The run's sizes: the scaled defaults, or the paper's with --full.
struct Scale {
  std::int64_t file_bytes = 10 * kGB;
  std::int64_t access_bytes = 400 * kMB;  // per mpi-io-test/ior run
  int btio_steps = 2;                     // of the class-C 40
  std::size_t trace_requests = 2'000;
  int fuzz_cases = 12;   // generated workloads in the fuzz mix
  int fault_cases = 6;   // generated workloads per fault scenario
  int jobs = 1;          // exp::Runner pool size

  /// Parses `[--full] [--jobs N] [figure...]`; plain words go to `ids`.
  /// Any other argument, a `--jobs` without a value included, prints a
  /// usage line and exits 2, the tools' usage-error code, so a typo cannot
  /// quietly run something else.
  static Scale parse(int argc, char** argv, std::vector<std::string>& ids) {
    Scale s;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--full") {
        s.access_bytes = 10 * kGB;
        s.btio_steps = 40;
        s.trace_requests = 20'000;
        s.fuzz_cases = 60;
        s.fault_cases = 24;
      } else if (arg == "--jobs" && i + 1 < argc) {
        s.jobs = static_cast<int>(
            exp::require_int(argv[0], "--jobs", argv[++i], 1, 256));
      } else if (!arg.empty() && arg[0] != '-') {
        ids.push_back(arg);
      } else {
        std::fprintf(stderr, "%s: bad argument '%s'\nusage: %s [--full] "
                     "[--jobs N] [figure...]\n", argv[0], arg.c_str(), argv[0]);
        std::exit(2);
      }
    }
    return s;
  }
};

void banner(const char* id, const char* what) {
  std::printf("\n=== %s: %s ===\n", id, what);
}

/// One cell's named numbers, plus one line per case that failed a
/// correctness check inside the cell (the fuzz-mix and fault studies check
/// every case they run).  Their figures print the lines and count them in
/// the gauge's `failures` key, and a non-zero count fails the run.
struct Values : std::map<std::string, double> {
  using map::map;
  std::vector<std::string> failures;
};
using Gauges = std::vector<exp::Gauge>;

struct Figure {
  std::vector<std::string> ids;  ///< names that select it on the command line
  std::vector<std::function<Values()>> cells;
  /// Prints the figure from its cells' results (in cell order) and returns
  /// the gauges to write.
  std::function<Gauges(const std::vector<Values>&)> render;
};

// ------------------------------------------------------------- helpers ----

/// "<head><n><tail>", built stepwise: the one-expression "a" +
/// to_string(n) + "b" form trips GCC 12's -Werror=restrict false positive
/// at -O3.
std::string cat(const std::string& head, long long n, const char* tail = "") {
  std::string s = head;
  s += std::to_string(n);
  s += tail;
  return s;
}

/// A table cell that is also a gauge key: records `value` under `key` and
/// returns it formatted, so every printed number can be checked.
std::string put(exp::Gauge& g, const std::string& key, const char* fmt,
                double value) {
  g.set(key, value);
  return Table::fmt(fmt, value);
}

cluster::ClusterConfig system_for(bool ibridge) {
  return ibridge ? cluster::ClusterConfig::with_ibridge()
                 : cluster::ClusterConfig::stock();
}

workloads::MpiIoTestConfig mpi_io_test(const Scale& scale, int procs,
                                       std::int64_t size, bool write,
                                       std::int64_t shift = 0) {
  workloads::MpiIoTestConfig cfg;
  cfg.nprocs = procs;
  cfg.request_size = size;
  cfg.offset_shift = shift;
  cfg.file_bytes = scale.file_bytes;
  cfg.access_bytes = scale.access_bytes;
  cfg.write = write;
  return cfg;
}

/// The measured run of `cfg` on a fresh `cc` cluster, as Figs. 4, 6-8 and
/// 13 measure it.  Reads first run twice unmeasured on both systems
/// (identical conditions); for iBridge the warm-ups cache the fragments,
/// as the paper's repeated-program-runs rationale describes ("the data
/// access patterns ... are generally consistent from one run to
/// another").  Returns mbps (drain included), plus the measured run's
/// payload bytes and the bytes the SSDs served during it.
template <typename Config>
Values measured(const cluster::ClusterConfig& cc, const Config& cfg,
                workloads::WorkloadResult (*run)(cluster::Cluster&,
                                                 const Config&)) {
  cluster::Cluster c(cc);
  if (!cfg.write) {
    run(c, cfg);
    run(c, cfg);
  }
  const sim::Bytes ssd_before = c.ssd_bytes_served();
  const auto r = run(c, cfg);
  return {{"mbps", r.mbps()},
          {"bytes", static_cast<double>(r.bytes)},
          {"ssd_bytes",
           static_cast<double>((c.ssd_bytes_served() - ssd_before).count())}};
}

double ssd_share_pct(const Values& v) {
  return v.at("bytes") > 0 ? 100.0 * v.at("ssd_bytes") / v.at("bytes") : 0.0;
}

/// BTIO on a fresh `cc` cluster: execution time including the final drain,
/// and the per-process time blocked in I/O, both in seconds.
Values btio(const Scale& scale, const cluster::ClusterConfig& cc, int procs) {
  cluster::Cluster c(cc);
  workloads::BtIoConfig cfg;
  cfg.nprocs = procs;
  cfg.time_steps = scale.btio_steps;
  const auto r = run_btio(c, cfg);
  return {{"elapsed_s", r.elapsed.to_seconds()},
          {"io_s", r.io_time.to_seconds()}};
}

/// The six most frequent dispatch sizes of a block trace: topN.sectors and
/// topN.pct (share of all dispatches).
Values top_sizes(const stats::IntHistogram& h) {
  Values v;
  const auto top = h.top(6);
  for (std::size_t i = 0; i < top.size(); ++i) {
    const std::string k = cat("top", static_cast<long long>(i));
    v[k + ".sectors"] = static_cast<double>(top[i].first);
    v[k + ".pct"] = 100.0 * static_cast<double>(top[i].second) /
                    static_cast<double>(h.total());
  }
  return v;
}

void print_top_sizes(const Values& v) {
  for (long long i = 0;; ++i) {
    const std::string k = cat("top", i);
    const auto it = v.find(k + ".sectors");
    if (it == v.end()) return;
    std::printf("    %5lld sectors : %5.1f%%\n",
                static_cast<long long>(it->second), v.at(k + ".pct"));
  }
}

// ------------------------------------------------------------- Table I ----
// Percentages of unaligned and random accesses in the ALEGRA / CTH / S3D
// traces under a 64 KB striping unit.  The Sandia traces are not
// redistributable; the synthesizer generates streams whose classification
// statistics match the published percentages, and the classifier must
// reproduce the table from them.

struct TraceRow {
  workloads::TraceProfile profile;
  double paper_a, paper_b;  ///< the paper's two published columns
};

Figure table1(const Scale& scale) {
  const std::vector<TraceRow> rows = {
      {workloads::alegra_2744_profile(), 35.2, 7.3},
      {workloads::alegra_5832_profile(), 35.7, 6.9},
      {workloads::cth_profile(), 24.3, 30.1},
      {workloads::s3d_profile(), 62.8, 5.8},
  };
  Figure f{{"table1"}, {}, {}};
  for (const TraceRow& row : rows) {
    f.cells.push_back([scale, profile = row.profile] {
      workloads::TraceSynthesizer synth(profile);
      const auto s = workloads::AccessClassifier().classify(
          synth.generate(scale.trace_requests * 10, 10 * kGB, /*seed=*/1));
      return Values{{"unaligned_pct", s.unaligned_pct},
                    {"random_pct", s.random_pct},
                    {"total_pct", s.total_pct}};
    });
  }
  f.render = [rows](const std::vector<Values>& v) {
    banner("Table I", "unaligned / random request percentages (64 KB unit)");
    exp::Gauge g("table1_traces");
    Table t({"Apps", "Unaligned (%)", "Random (%)", "Total (%)", "paper U%",
             "paper R%"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string& name = rows[i].profile.name;
      std::vector<std::string> row{name};
      for (const char* key : {"unaligned_pct", "random_pct", "total_pct"}) {
        row.push_back(put(g, name + "." + key, "%.1f", v[i].at(key)));
      }
      row.push_back(Table::fmt("%.1f", rows[i].paper_a));
      row.push_back(Table::fmt("%.1f", rows[i].paper_b));
      t.add_row(row);
    }
    t.print();
    return Gauges{g};
  };
  return f;
}

// ------------------------------------------------------------ Figure 2 ----
// The motivating study on the stock system: read throughput under (a)
// Pattern II request sizes and (b) Pattern III offset shifts, and (c-e)
// the block-level request-size distributions of 64 KB aligned, 65 KB and
// 64 KB + 10 KB requests on server 0.

Figure fig2(const Scale& scale) {
  const std::vector<long long> sizes_kb = {64, 65, 74, 84, 94};
  const std::vector<long long> shifts_kb = {0, 1, 10, 20};
  const std::vector<int> procs = {16, 64, 128, 512};
  struct Dist {
    const char* label;
    std::int64_t size, shift;
  };
  const std::vector<Dist> dists = {
      {"(c) aligned 64 KB requests", 64 * 1024, 0},
      {"(d) 65 KB requests", 65 * 1024, 0},
      {"(e) 64 KB requests + 10 KB offset", 64 * 1024, 10 * 1024},
  };
  Figure f{{"fig2"}, {}, {}};
  const auto read = [&](int p, std::int64_t size, std::int64_t shift) {
    f.cells.push_back([=] {
      cluster::Cluster c(cluster::ClusterConfig::stock());
      return Values{
          {"mbps",
           run_mpi_io_test(c, mpi_io_test(scale, p, size, false, shift))
               .mbps()}};
    });
  };
  for (long long kb : sizes_kb) {
    for (int p : procs) read(p, kb * 1024, 0);
  }
  for (long long kb : shifts_kb) {
    for (int p : procs) read(p, 64 * 1024, kb * 1024);
  }
  for (const Dist& d : dists) {
    f.cells.push_back([scale, d] {
      cluster::Cluster c(cluster::ClusterConfig::stock());
      c.enable_disk_trace(0);
      run_mpi_io_test(c, mpi_io_test(scale, 16, d.size, false, d.shift));
      return top_sizes(c.server(0).disk().trace().size_histogram());
    });
  }

  f.render = [=](const std::vector<Values>& v) {
    exp::Gauge g("fig2_unaligned");
    std::size_t i = 0;
    const auto sweep = [&](const std::vector<long long>& kbs,
                           const char* column, const char* label_head,
                           const char* key_head) {
      Table t({column, "16 procs", "64 procs", "128 procs", "512 procs"});
      for (long long kb : kbs) {
        std::vector<std::string> row{cat(label_head, kb, " KB")};
        for (int p : procs) {
          row.push_back(put(g, cat(cat(key_head, kb, "kb.p"), p), "%.1f",
                            v[i++].at("mbps")));
        }
        t.add_row(row);
      }
      t.print();
    };
    banner("Figure 2(a)", "stock read throughput, Pattern II (request size)");
    sweep(sizes_kb, "req size", "", "p2.");
    std::printf("  paper anchors: 64KB/16p=159.6, 65KB/16p=77.4, "
                "64KB/512p=116.2 MB/s\n");
    banner("Figure 2(b)", "stock read throughput, Pattern III (offset shift)");
    sweep(shifts_kb, "offset", "+", "p3.shift");
    std::printf("  paper anchors: +1KB/512p=102.1, +10KB/512p=81.8 MB/s\n");

    banner("Figure 2(c-e)",
           "block-level request-size distributions (server 0)");
    for (const Dist& d : dists) {
      std::printf("  %s (top sizes, sectors: fraction)\n", d.label);
      print_top_sizes(v[i++]);
    }
    std::printf("  paper anchors: (c) 72%% at 128 sectors, 18%% at 256; "
                "(d) many small sizes; (e) 40 KB / 88 KB dominant\n");
    return Gauges{g};
  };
  return f;
}

// ------------------------------------------------------------ Figure 3 ----
// The striping magnification effect (workloads/magnification.hpp): k*64 KB
// requests (servers 0..k-1) versus k*64 KB + 1 KB (the fragment lands on
// server k, where an interfering group reads), with and without a barrier
// between iterations.  The paper's trend: the fragment's throughput penalty
// grows with k.

double fig3_mbps(const Scale& scale, int k, bool with_fragment, bool barrier) {
  cluster::Cluster c(cluster::ClusterConfig::stock());
  workloads::MagnificationConfig cfg;
  cfg.k = k;
  cfg.fragment = with_fragment;
  cfg.barrier = barrier;
  cfg.requests = std::max<std::int64_t>(
      1, scale.access_bytes /
             (16 * cfg.request_bytes(c.config().stripe_unit)) / 4);
  return workloads::run_magnification(c, cfg).mbps();
}

Figure fig3(const Scale& scale) {
  const std::vector<int> ks = {1, 2, 4, 6};
  Figure f{{"fig3"}, {}, {}};
  for (int k : ks) {
    for (bool barrier : {false, true}) {
      for (bool fragment : {false, true}) {
        f.cells.push_back([=] {
          return Values{{"mbps", fig3_mbps(scale, k, fragment, barrier)}};
        });
      }
    }
  }
  f.render = [ks](const std::vector<Values>& v) {
    banner("Figure 3", "striping magnification: k servers +- a 1 KB fragment");
    exp::Gauge g("fig3_magnification");
    Table t({"k (servers)", "no-frag", "frag", "reduction", "no-frag+barrier",
             "frag+barrier", "reduction"});
    std::size_t i = 0;
    for (int k : ks) {
      std::vector<std::string> row{std::to_string(k)};
      const std::string key = cat("k", k, ".");
      for (const char* barrier : {"", "barrier_"}) {
        const double nf = v[i++].at("mbps");
        const double fr = v[i++].at("mbps");
        row.push_back(put(g, key + barrier + "nofrag_mbps", "%.1f", nf));
        row.push_back(put(g, key + barrier + "frag_mbps", "%.1f", fr));
        row.push_back(put(g, key + barrier + "reduction_pct", "%.0f%%",
                          100.0 * (1.0 - fr / nf)));
      }
      t.add_row(row);
    }
    t.print();
    std::printf("  paper trend: reduction grows with k; barriers amplify the "
                "fragment penalty\n");
    return Gauges{g};
  };
  return f;
}

// ------------------------------------------------------------ Table II ----
// Basic performance of the SSD and HDD device models.  The paper
// benchmarked its drives with 4 KB requests; the simulated devices are
// measured the same way: streaming for the sequential rates, scattered
// 4 KB requests for the random rates.  Sequential rates are calibrated to
// match the paper exactly; the HDD random rates land below the paper's
// published numbers (which exceed what a 7200 RPM disk can do without
// cache effects) — the *ordering* and read/write asymmetry match.

std::vector<storage::BlockRequest> sequential(storage::IoDirection dir,
                                              int count) {
  std::vector<storage::BlockRequest> v;
  const std::int64_t chunk = 2048;  // 1 MB
  for (int i = 0; i < count; ++i) v.push_back({dir, i * chunk, chunk, 0});
  return v;
}

std::vector<storage::BlockRequest> random4k(storage::IoDirection dir,
                                            int count, std::int64_t span,
                                            std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<storage::BlockRequest> v;
  for (int i = 0; i < count; ++i) {
    v.push_back({dir, rng.uniform(0, span - 8), 8, 0});
  }
  return v;
}

/// Throughput of one fresh device model on 1 MB streaming or scattered
/// 4 KB requests, all issued back-to-back.
template <typename Device, typename Params>
Values device_mbps(const Params& params, storage::IoDirection dir, bool seq,
                   int random_count, std::uint64_t seed) {
  sim::Simulator sim;
  Device dev(sim, params);
  const auto reqs = seq ? sequential(dir, 128)
                        : random4k(dir, random_count, dev.capacity_sectors(),
                                   seed);
  const sim::SimTime t0 = sim.now();
  for (const auto& r : reqs) dev.submit(r);
  sim.run();
  const double bytes =
      static_cast<double>(dev.bytes_read() + dev.bytes_written());
  return {{"mbps", bytes / 1e6 / (sim.now() - t0).to_seconds()}};
}

Figure table2(const Scale&) {
  struct Row {
    const char* label;
    const char* key;
    storage::IoDirection dir;
    bool seq;
    double ssd_paper, hdd_paper;
  };
  const std::vector<Row> rows = {
      {"Sequential Read", "seq_read", storage::IoDirection::kRead, true, 160,
       85},
      {"Random Read", "rand_read", storage::IoDirection::kRead, false, 60, 15},
      {"Sequential Write", "seq_write", storage::IoDirection::kWrite, true,
       140, 80},
      {"Random Write", "rand_write", storage::IoDirection::kWrite, false, 30,
       5},
  };
  Figure f{{"table2"}, {}, {}};
  for (const Row& r : rows) {
    f.cells.push_back([r] {
      return device_mbps<storage::SsdModel>(storage::paper_ssd(), r.dir, r.seq,
                                            2000, 1);
    });
    f.cells.push_back([r] {
      auto hdd = storage::paper_hdd();
      hdd.anticipation_ms = 0;
      return device_mbps<storage::HddModel>(hdd, r.dir, r.seq, 500, 2);
    });
  }
  f.render = [rows](const std::vector<Values>& v) {
    banner("Table II", "device microbenchmarks (4 KB random, 1 MB streaming)");
    exp::Gauge g("table2_devices");
    Table t({"", "SSD model", "SSD paper", "HDD model", "HDD paper"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const std::string key = rows[i].key;
      const double ssd = v[2 * i].at("mbps");
      const double hdd = v[2 * i + 1].at("mbps");
      t.add_row({rows[i].label, put(g, key + ".ssd_mbps", "%.1f MB/s", ssd),
                 Table::fmt("%.0f MB/s", rows[i].ssd_paper),
                 put(g, key + ".hdd_mbps", "%.1f MB/s", hdd),
                 Table::fmt("%.0f MB/s", rows[i].hdd_paper)});
    }
    t.print();
    std::printf(
        "  note: the paper's HDD random 4 KB rates (15/5 MB/s = 3750/1250 "
        "IOPS)\n  exceed raw 7200-RPM mechanics; the model reproduces the "
        "ordering and\n  the ~3x read/write asymmetry at physically "
        "consistent magnitudes.\n");
    return Gauges{g};
  };
  return f;
}

// ------------------------------------------------------- Figures 4 and 5 ----
// mpi-io-test with iBridge, 64 processes.  Fig. 4(a) writes / 4(b) reads:
// request sizes 33/65/129 KB and 64 KB requests at offsets +0/+1/+10/+20
// KB, stock vs iBridge.  Fig. 5: the block-level request-size distribution
// on server 0 with iBridge, for the measured run of the 64 KB + 10 KB
// offset reads (the trace is cleared after the two warm-up runs).

Figure fig4(const Scale& scale) {
  struct Case {
    std::string label;
    std::string key;  ///< gauge-safe case name, e.g. "33KB" / "64KB+10KB"
    std::int64_t size, shift;
  };
  std::vector<Case> cases;
  for (long long kb : {33, 65, 129}) {
    cases.push_back({cat("", kb, " KB"), cat("", kb, "KB"), kb * 1024, 0});
  }
  for (long long kb : {0, 1, 10, 20}) {
    cases.push_back(
        {cat("64 KB +", kb, " KB"), cat("64KB+", kb, "KB"), 64 * 1024,
         kb * 1024});
  }
  Figure f{{"fig4", "fig5"}, {}, {}};
  for (bool write : {true, false}) {
    for (const Case& k : cases) {
      for (bool ibridge : {false, true}) {
        f.cells.push_back([=] {
          return measured(system_for(ibridge),
                          mpi_io_test(scale, 64, k.size, write, k.shift),
                          &workloads::run_mpi_io_test);
        });
      }
    }
  }
  f.cells.push_back([scale] {
    cluster::Cluster c(cluster::ClusterConfig::with_ibridge());
    c.enable_disk_trace(0);
    const auto cfg = mpi_io_test(scale, 64, 64 * 1024, false, 10 * 1024);
    run_mpi_io_test(c, cfg);
    run_mpi_io_test(c, cfg);
    c.server(0).disk().trace().clear();
    run_mpi_io_test(c, cfg);
    Values v = top_sizes(c.server(0).disk().trace().size_histogram());
    obs::MetricsRegistry reg;
    c.collect_metrics(reg);
    for (const auto& [name, value] : reg.flatten()) {
      if (name.compare(0, 6, "cache.") == 0) v[name] = value;
    }
    return v;
  });

  f.render = [cases](const std::vector<Values>& v) {
    exp::Gauge g("fig4_mpiiotest");
    std::size_t i = 0;
    for (bool write : {true, false}) {
      banner(write ? "Figure 4(a)" : "Figure 4(b)",
             write ? "mpi-io-test writes, 64 procs, stock vs iBridge"
                   : "mpi-io-test reads, 64 procs, stock vs iBridge (warm)");
      Table t({"case", "stock", "iBridge", "improvement", "SSD share"});
      const std::string section = write ? "write." : "read.";
      for (const Case& k : cases) {
        const double stock = v[i++].at("mbps");
        const double ib = v[i].at("mbps");
        const std::string key = section + k.key;
        t.add_row({k.label, put(g, key + ".stock", "%.1f", stock),
                   put(g, key + ".ibridge", "%.1f", ib),
                   Table::fmt("%+.0f%%", 100.0 * (ib / stock - 1.0)),
                   put(g, key + ".ssd_share_pct", "%.0f%%",
                       ssd_share_pct(v[i++]))});
      }
      t.print();
      if (write) {
        std::printf("  paper anchors (writes): +105%%/+183%%/+171%% for "
                    "33/65/129 KB; aligned ~167 MB/s\n");
      } else {
        std::printf("  paper: SSD shares 19%%/10%%/4%% for 33/65/129 KB; "
                    "offsets nearly close the gap to aligned\n");
      }
    }

    banner("Figure 5",
           "block-size distribution with iBridge, 64 KB + 10 KB offset reads");
    print_top_sizes(v[i]);
    std::printf("  paper: 128- and 256-sector requests predominate once "
                "fragments go to the SSDs\n");
    std::printf("  cluster-wide cache metrics after the measured run:\n");
    for (const auto& [name, value] : v[i]) {
      if (name.compare(0, 6, "cache.") == 0) {
        std::printf("    %-36s %.6g\n", name.c_str(), value);
      }
    }
    return Gauges{g};
  };
  return f;
}

// ------------------------------------------------------------ Figure 6 ----
// Scalability with process count: mpi-io-test, 65 KB requests, 16-512
// processes, reads and writes, stock vs iBridge.

Figure fig6(const Scale& scale) {
  struct Series {
    bool ibridge, write;
    const char* key;
  };
  const std::vector<Series> series = {{false, false, "read_stock"},
                                      {true, false, "read_ibridge"},
                                      {false, true, "write_stock"},
                                      {true, true, "write_ibridge"}};
  const std::vector<int> procs = {16, 64, 128, 512};
  Figure f{{"fig6"}, {}, {}};
  for (int p : procs) {
    for (const Series& s : series) {
      f.cells.push_back([=] {
        return measured(system_for(s.ibridge),
                        mpi_io_test(scale, p, 65 * 1024, s.write),
                        &workloads::run_mpi_io_test);
      });
    }
  }
  f.render = [=](const std::vector<Values>& v) {
    banner("Figure 6", "mpi-io-test 65 KB requests, process-count scaling");
    exp::Gauge g("fig6_procscale");
    Table t({"procs", "read stock", "read iBridge", "write stock",
             "write iBridge"});
    std::size_t i = 0;
    for (int p : procs) {
      std::vector<std::string> row{std::to_string(p)};
      for (const Series& s : series) {
        row.push_back(put(g, cat(std::string(s.key) + ".p", p), "%.1f",
                          v[i++].at("mbps")));
      }
      t.add_row(row);
    }
    t.print();
    std::printf("  paper: iBridge improves throughput by 154%% on average "
                "across process counts;\n  512 procs slightly lower than 64 "
                "for both systems\n");
    return Gauges{g};
  };
  return f;
}

// ------------------------------------------------------------ Figure 7 ----
// Scalability with data-server count: mpi-io-test, 64 procs, servers 2-8.
// Three series per direction: 64 KB aligned on stock (reference), 65 KB on
// stock, 65 KB with iBridge.

Figure fig7(const Scale& scale) {
  struct Series {
    bool ibridge;
    std::int64_t req;
    const char* key;
  };
  const std::vector<Series> series = {{false, 64 * 1024, "aligned_stock"},
                                      {false, 65 * 1024, "stock"},
                                      {true, 65 * 1024, "ibridge"}};
  const std::vector<int> servers = {2, 4, 6, 8};
  Figure f{{"fig7"}, {}, {}};
  for (bool write : {true, false}) {
    for (int n : servers) {
      for (const Series& s : series) {
        f.cells.push_back([=] {
          auto cc = system_for(s.ibridge);
          cc.data_servers = n;
          auto cfg = mpi_io_test(scale, 64, s.req, write);
          cfg.access_bytes = scale.access_bytes / 2;
          return measured(cc, cfg, &workloads::run_mpi_io_test);
        });
      }
    }
  }
  f.render = [=](const std::vector<Values>& v) {
    exp::Gauge g("fig7_serverscale");
    std::size_t i = 0;
    for (bool write : {true, false}) {
      banner(write ? "Figure 7(a)" : "Figure 7(b)",
             write ? "server scaling, writes" : "server scaling, reads");
      Table t({"servers", "64 KB stock (aligned)", "65 KB stock",
               "65 KB iBridge"});
      for (int n : servers) {
        std::vector<std::string> row{std::to_string(n)};
        for (const Series& s : series) {
          row.push_back(
              put(g, cat(std::string(s.key) + (write ? ".write.s" : ".read.s"),
                         n),
                  "%.1f", v[i++].at("mbps")));
        }
        t.add_row(row);
      }
      t.print();
    }
    std::printf("  paper: throughput grows with server count everywhere; the "
                "aligned-vs-65KB gap\n  widens with more servers and iBridge "
                "nearly closes it\n");
    return Gauges{g};
  };
  return f;
}

// ------------------------------------------------------------ Figure 8 ----
// ior-mpi-io (ASCI Purple), 64 processes, random effective access pattern:
// request sizes 33/64/65/129 KB, writes and reads, stock vs iBridge.

Figure fig8(const Scale& scale) {
  const std::vector<long long> sizes_kb = {33, 64, 65, 129};
  Figure f{{"fig8"}, {}, {}};
  for (bool write : {true, false}) {
    for (long long kb : sizes_kb) {
      for (bool ibridge : {false, true}) {
        f.cells.push_back([=] {
          workloads::IorMpiIoConfig cfg;
          cfg.nprocs = 64;
          cfg.request_size = kb * 1024;
          cfg.file_bytes = scale.file_bytes;
          cfg.access_bytes = scale.access_bytes;
          cfg.write = write;
          return measured(system_for(ibridge), cfg,
                          &workloads::run_ior_mpi_io);
        });
      }
    }
  }
  f.render = [sizes_kb](const std::vector<Values>& v) {
    exp::Gauge g("fig8_ior");
    std::size_t i = 0;
    for (bool write : {true, false}) {
      banner(write ? "Figure 8(a)" : "Figure 8(b)",
             write ? "ior-mpi-io writes" : "ior-mpi-io reads");
      Table t({"req size", "stock", "iBridge", "improvement"});
      for (long long kb : sizes_kb) {
        const double stock = v[i++].at("mbps");
        const double ib = v[i++].at("mbps");
        const std::string stem = cat(write ? "write." : "read.", kb, "kb");
        t.add_row({cat("", kb, " KB"), put(g, stem + ".stock", "%.1f", stock),
                   put(g, stem + ".ibridge", "%.1f", ib),
                   Table::fmt("%+.0f%%", 100.0 * (ib / stock - 1.0))});
      }
      t.print();
    }
    std::printf("  paper: average improvement 169%% for writes, 48%% for "
                "reads; 64 KB aligned unchanged;\n  even 129 KB (4%% SSD "
                "share) gains 60%%/35%%\n");
    return Gauges{g};
  };
  return f;
}

// ---------------------------------------------------- Figures 9 and 10 ----
// BTIO (NPB BT class C), 9/16/64/100 processes, on one grid of disk-only
// (stock), SSD-only (datafiles directly on the SSDs) and iBridge clusters.
// Fig. 9 compares stock with iBridge: execution time and I/O share.  All
// BTIO requests are regular random requests (640 B - 2160 B), so this
// exercises the non-fragment admission path.  Fig. 10 adds SSD-only; the
// paper's point is that iBridge beats even SSD-only storage because its
// log-structured cache writes the SSD sequentially, while direct SSD
// datafiles take the random-write path (140 vs 30 MB/s).

Figure fig9(const Scale& scale) {
  const std::vector<int> procs = {9, 16, 64, 100};
  Figure f{{"fig9", "fig10"}, {}, {}};
  for (int p : procs) {
    for (const auto& cc : {cluster::ClusterConfig::stock(),
                           cluster::ClusterConfig::ssd_only(),
                           cluster::ClusterConfig::with_ibridge()}) {
      f.cells.push_back([=] { return btio(scale, cc, p); });
    }
  }
  f.render = [procs](const std::vector<Values>& v) {
    banner("Figure 9", "BTIO execution time (class C grid), stock vs iBridge");
    exp::Gauge g9("fig9_btio");
    Table t9({"procs", "req size", "stock (s)", "iBridge (s)", "reduction",
              "stock I/O frac", "iBridge I/O frac"});
    for (std::size_t i = 0; i < procs.size(); ++i) {
      const Values& stock = v[3 * i];
      const Values& ib = v[3 * i + 2];
      const double s_exec = stock.at("elapsed_s");
      const double i_exec = ib.at("elapsed_s");
      workloads::BtIoConfig cfg;
      cfg.nprocs = procs[i];
      const std::string p = cat("p", procs[i]);
      t9.add_row({std::to_string(procs[i]),
                  cat("", cfg.request_bytes(), " B"),
                  put(g9, "stock." + p + ".elapsed_s", "%.2f", s_exec),
                  put(g9, "ibridge." + p + ".elapsed_s", "%.2f", i_exec),
                  Table::fmt("%.0f%%", 100.0 * (1.0 - i_exec / s_exec)),
                  Table::fmt("%.0f%%", 100.0 * stock.at("io_s") / s_exec),
                  Table::fmt("%.0f%%", 100.0 * ib.at("io_s") / i_exec)});
      g9.set("stock." + p + ".io_s", stock.at("io_s"));
      g9.set("ibridge." + p + ".io_s", ib.at("io_s"));
    }
    t9.print();
    std::printf("  paper: reductions 45%%/55%%/61%%/59%%; I/O fraction drops "
                "from 58%% to 4%% on average\n");

    banner("Figure 10", "BTIO: disk-only vs SSD-only vs iBridge");
    exp::Gauge g10("fig10_ssdonly");
    Table t10({"procs", "disk-only (s)", "SSD-only (s)", "iBridge (s)"});
    for (std::size_t i = 0; i < procs.size(); ++i) {
      std::vector<std::string> row{std::to_string(procs[i])};
      const std::string p = cat(".p", procs[i], ".elapsed_s");
      std::size_t k = 3 * i;
      for (const char* system : {"disk", "ssdonly", "ibridge"}) {
        row.push_back(put(g10, system + p, "%.2f", v[k++].at("elapsed_s")));
      }
      t10.add_row(row);
    }
    t10.print();
    std::printf("  paper: iBridge < SSD-only < disk-only — the log-structured "
                "cache turns the SSD's\n  random writes into sequential "
                "ones\n");
    return Gauges{g9, g10};
  };
  return f;
}

// ----------------------------------------------------------- Figure 11 ----
// BTIO I/O time as a function of available SSD cache capacity, from more
// than the data down to 0 (disk-only).  Capacities scale with the accessed
// data volume so the sweep spans "everything fits" down to "nothing fits",
// as in the paper's 8 GB -> 0.

Figure fig11(const Scale& scale) {
  const std::vector<double> fracs = {1.2, 0.75, 0.5, 0.25, 0.0};
  Figure f{{"fig11"}, {}, {}};
  for (double frac : fracs) {
    f.cells.push_back([scale, frac] {
      workloads::BtIoConfig cfg;
      cfg.time_steps = scale.btio_steps;
      const std::int64_t data = cfg.dump_bytes() * cfg.time_steps;
      cluster::ClusterConfig cc = cluster::ClusterConfig::stock();
      if (frac > 0.0) {
        core::IBridgeConfig ib;
        ib.ssd_cache_bytes = std::max<std::int64_t>(
            static_cast<std::int64_t>(static_cast<double>(data) * frac) /
                8,  // per server
            8 << 20);
        cc = cluster::ClusterConfig::with_ibridge(ib);
      }
      return btio(scale, cc, 16);
    });
  }
  f.render = [fracs](const std::vector<Values>& v) {
    banner("Figure 11", "BTIO I/O time vs SSD cache capacity");
    exp::Gauge g("fig11_ssdcap");
    Table t({"SSD capacity", "I/O time (s)", "exec time (s)"});
    for (std::size_t i = 0; i < fracs.size(); ++i) {
      const std::string cap =
          cat("cap", static_cast<int>(fracs[i] * 100.0), ".");
      t.add_row({Table::fmt("%.0f%% of data", fracs[i] * 100.0),
                 put(g, cap + "io_s", "%.3f", v[i].at("io_s")),
                 put(g, cap + "exec_s", "%.2f", v[i].at("elapsed_s"))});
    }
    const Values& full = v.front();
    const Values& none = v.back();
    if (full.at("io_s") > 0) {
      std::printf("  I/O time ratio 0-capacity vs full: %.1fx (paper: 12x); "
                  "exec time ratio: %.1fx (paper: 2.2x)\n",
                  none.at("io_s") / full.at("io_s"),
                  none.at("elapsed_s") / full.at("elapsed_s"));
    }
    t.print();
    std::printf("  paper: near-linear relation between cached share and I/O "
                "performance\n");
    return Gauges{g};
  };
  return f;
}

// ----------------------------------------------------------- Table III ----
// Single-process replay of the ALEGRA / CTH / S3D traces: average request
// service time, stock vs iBridge.

Figure table3(const Scale& scale) {
  const std::vector<TraceRow> rows = {
      {workloads::alegra_2744_profile(), 16.6, 14.2},
      {workloads::alegra_5832_profile(), 17.2, 14.0},
      {workloads::cth_profile(), 19.4, 14.4},
      {workloads::s3d_profile(), 36.0, 25.3},
  };
  Figure f{{"table3"}, {}, {}};
  std::uint64_t seed = 10;
  for (const TraceRow& row : rows) {
    for (bool ibridge : {false, true}) {
      f.cells.push_back([scale, ibridge, seed, profile = row.profile] {
        workloads::TraceSynthesizer synth(profile);
        const auto trace =
            synth.generate(scale.trace_requests, scale.file_bytes, seed);
        workloads::ReplayConfig rc;
        rc.file_bytes = scale.file_bytes;
        cluster::Cluster c(system_for(ibridge));
        return Values{{"ms", replay_trace(c, trace, rc).avg_request_ms}};
      });
    }
    ++seed;
  }
  f.render = [rows](const std::vector<Values>& v) {
    banner("Table III", "trace replay: average request service time (ms)");
    exp::Gauge g("table3_replay");
    Table t({"Trace", "Stock", "iBridge", "reduction", "paper stock",
             "paper iBridge"});
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const double stock_ms = v[2 * i].at("ms");
      const double ib_ms = v[2 * i + 1].at("ms");
      const std::string key = rows[i].profile.name + ".";
      t.add_row({rows[i].profile.name,
                 put(g, key + "stock_ms", "%.1fms", stock_ms),
                 put(g, key + "ibridge_ms", "%.1fms", ib_ms),
                 put(g, key + "reduction_pct", "%.1f%%",
                     100.0 * (1.0 - ib_ms / stock_ms)),
                 Table::fmt("%.1fms", rows[i].paper_a),
                 Table::fmt("%.1fms", rows[i].paper_b)});
    }
    t.print();
    std::printf("  paper reductions: 13.9%% / 18.7%% / 25.9%% / 29.8%%; CTH "
                "and S3D gain most\n  (more random/unaligned requests); S3D's "
                "larger requests double its service time\n");
    return Gauges{g};
  };
  return f;
}

// ----------------------------------------------------------- Figure 12 ----
// Heterogeneous workloads: mpi-io-test (fragment source, 64 procs, 65 KB
// writes) running concurrently with BTIO (regular-random source, 64
// procs), both driven by the workloads' own rank bodies.  Compares stock
// (no SSD), static 1:1 and 1:2 SSD partitions, and iBridge's dynamic
// partitioning.

Values hetero(const Scale& scale, const cluster::ClusterConfig& cc) {
  cluster::Cluster c(cc);
  auto mcfg = mpi_io_test(scale, 64, 65 * 1024, /*write=*/true);
  mcfg.access_bytes = scale.access_bytes / 2;
  workloads::BtIoConfig bcfg;
  bcfg.nprocs = 64;
  bcfg.time_steps = scale.btio_steps;
  bcfg.compute_ms_per_step = 100.0;  // concurrency study: I/O-heavy

  c.restart_daemons();
  auto mfh = c.create_file(mcfg.file_name, mcfg.file_bytes);
  auto bfh =
      c.create_file(bcfg.file_name, bcfg.dump_bytes() * (bcfg.time_steps + 1));
  mpiio::MpiEnvironment menv(c.sim(), c.client(), mcfg.nprocs);
  mpiio::MpiEnvironment benv(c.sim(), c.client(), bcfg.nprocs);
  mpiio::MpiFile mfile(c.client(), mfh);
  mpiio::MpiFile bfile(c.client(), bfh);

  workloads::Tally m;
  workloads::BtIoTally b;
  const sim::SimTime t0 = c.sim().now();
  menv.launch([&](mpiio::MpiContext ctx) {
    return workloads::mpi_io_test_rank(ctx, mfile, mcfg, &m);
  });
  benv.launch([&](mpiio::MpiContext ctx) {
    return workloads::btio_rank(ctx, bfile, bcfg, &b);
  });
  c.sim().run_while_pending(
      [&] { return menv.finished() && benv.finished(); });
  c.drain();
  return {{"mpiio_mbps",
           static_cast<double>(m.bytes) / 1e6 / (m.done - t0).to_seconds()},
          {"btio_mbps",
           static_cast<double>(b.bytes) / 1e6 / (b.done - t0).to_seconds()}};
}

Figure fig12(const Scale& scale) {
  // Cache sized to a fraction of the per-server working set so the two
  // request classes genuinely compete for space — the paper's 8 GB total
  // against a 16.8 GB working set, scaled to this bench's data volume.
  constexpr std::int64_t kCachePerServer = 24 << 20;
  const auto cached = [](core::IBridgeConfig ib) {
    ib.ssd_cache_bytes = kCachePerServer;
    return cluster::ClusterConfig::with_ibridge(ib);
  };
  const auto static_split = [&](double fragment_share) {
    core::IBridgeConfig ib;
    ib.partition_mode = core::PartitionMode::kStatic;
    ib.static_fragment_share = fragment_share;
    return cached(ib);
  };
  struct Case {
    const char* label;
    const char* key;  ///< gauge-safe case name
    cluster::ClusterConfig cc;
  };
  const std::vector<Case> cases = {
      {"stock (no SSD)", "stock", cluster::ClusterConfig::stock()},
      {"static 1:1", "static_1to1", static_split(0.5)},
      {"static 1:2", "static_1to2", static_split(2.0 / 3.0)},
      {"dynamic (iBridge)", "dynamic", cached(core::IBridgeConfig{})},
  };
  Figure f{{"fig12"}, {}, {}};
  for (const Case& k : cases) {
    f.cells.push_back([scale, cc = k.cc] { return hetero(scale, cc); });
  }
  f.render = [cases](const std::vector<Values>& v) {
    banner("Figure 12",
           "heterogeneous BTIO + mpi-io-test; partitioning policies");
    exp::Gauge g("fig12_hetero");
    Table t({"system", "mpi-io-test", "BTIO", "aggregate"});
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const double m = v[i].at("mpiio_mbps");
      const double b = v[i].at("btio_mbps");
      const std::string key = cases[i].key;
      t.add_row({cases[i].label, put(g, key + ".mpiio_mbps", "%.1f", m),
                 put(g, key + ".btio_mbps", "%.1f", b),
                 put(g, key + ".aggregate_mbps", "%.1f", m + b)});
    }
    t.print();
    const double stock = v.front().at("mpiio_mbps") + v.front().at("btio_mbps");
    const double dynamic = v.back().at("mpiio_mbps") + v.back().at("btio_mbps");
    if (stock > 0) {
      std::printf("  dynamic vs stock: %+.0f%% (paper: +53%%, 84 MB/s "
                  "aggregate; dynamic beats 1:1 by 13%% and 1:2 by 5%%)\n",
                  100.0 * (dynamic / stock - 1.0));
      g.set("dynamic_vs_stock_pct", 100.0 * (dynamic / stock - 1.0));
    }
    return Gauges{g};
  };
  return f;
}

// ----------------------------------------------------------- Figure 13 ----
// Effect of the request-size threshold: mpi-io-test, 64 procs, 65 KB
// writes; threshold swept 10-40 KB.  Reports throughput normalized to
// aligned 64 KB access and SSD usage normalized to the accessed data.

Figure fig13(const Scale& scale) {
  const std::vector<long long> thresholds_kb = {10, 20, 30, 40};
  Figure f{{"fig13"}, {}, {}};
  f.cells.push_back([scale] {  // the aligned reference
    return measured(cluster::ClusterConfig::stock(),
                    mpi_io_test(scale, 64, 64 * 1024, true),
                    &workloads::run_mpi_io_test);
  });
  for (long long kb : thresholds_kb) {
    f.cells.push_back([scale, kb] {
      core::IBridgeConfig ib;
      ib.fragment_threshold = kb * 1024;
      ib.random_threshold = kb * 1024;
      return measured(cluster::ClusterConfig::with_ibridge(ib),
                      mpi_io_test(scale, 64, 65 * 1024, true),
                      &workloads::run_mpi_io_test);
    });
  }
  f.render = [thresholds_kb](const std::vector<Values>& v) {
    banner("Figure 13", "request-size threshold sweep (65 KB writes)");
    exp::Gauge g("fig13_threshold");
    const double aligned = v[0].at("mbps");
    g.set("aligned_mbps", aligned);
    Table t({"threshold", "throughput", "normalized", "SSD usage",
             "SSD usage / data"});
    for (std::size_t i = 0; i < thresholds_kb.size(); ++i) {
      const Values& r = v[i + 1];
      const double mbps = r.at("mbps");
      const std::string key = cat("", thresholds_kb[i], "KB.");
      t.add_row({cat("", thresholds_kb[i], " KB"),
                 put(g, key + "mbps", "%.1f", mbps),
                 put(g, key + "normalized", "%.2f", mbps / aligned),
                 put(g, key + "ssd_used_mb", "%.0f MB",
                     r.at("ssd_bytes") / 1e6),
                 put(g, key + "ssd_share_pct", "%.0f%%",
                     100.0 * r.at("ssd_bytes") / r.at("bytes"))});
    }
    t.print();
    std::printf("  paper: throughput rises with the threshold (+56%% at 40 KB "
                "vs 10 KB) while SSD usage\n  grows 3%% -> 42%% of accessed "
                "data; 20 KB balances performance and SSD longevity\n");
    return Gauges{g};
  };
  return f;
}

// ------------------------------------------------------------ Ablations ----
// Studies beyond the paper's figures, each isolating one design choice
// DESIGN.md calls out:
//   1. Equation (3) fragment boost on/off
//   2. Equation (1) decay weight on the old average (1/8 vs alternatives)
//   3. admission policy: return-based vs always-small vs hot-block, on BTIO
//   4. the disk anticipation window (CFQ idling), stock reads
//   5. the write-back daemon's wake interval

/// mpi-io-test, 64 procs, 65 KB, half the default access, one run.
double run65k(const Scale& scale, const cluster::ClusterConfig& cc,
              bool write) {
  cluster::Cluster c(cc);
  auto cfg = mpi_io_test(scale, 64, 65 * 1024, write);
  cfg.access_bytes = scale.access_bytes / 2;
  return run_mpi_io_test(c, cfg).mbps();
}

Figure ablation(const Scale& scale) {
  struct Row {
    std::string label, key;
    std::function<double()> run;
  };
  struct Study {
    const char* id;
    const char* title;
    const char* column;
    const char* value_column;
    const char* fmt;
    const char* note;
    std::vector<Row> rows;
  };
  const auto write65k = [scale](core::IBridgeConfig ib) {
    return [scale, ib] {
      return run65k(scale, cluster::ClusterConfig::with_ibridge(ib), true);
    };
  };
  std::vector<Study> studies = {
      {"Ablation 1", "Equation (3) striping-magnification boost", "variant",
       "65 KB write MB/s", "%.1f", "", {}},
      {"Ablation 2", "Equation (1) decay weight on the old average",
       "old weight", "65 KB write MB/s", "%.1f",
       "  paper uses 1/8 (Linux anticipatory-scheduler weights)\n", {}},
      {"Ablation 3",
       "admission policy: iBridge vs always-small vs hot-block (BTIO)",
       "policy", "BTIO exec (s)", "%.2f",
       "  hot-block caches a region only after repeated access, so one-pass "
       "checkpoint\n  dumps miss it; always-small matches iBridge here but "
       "cannot prioritize fragments\n  under capacity pressure (Figure 12)\n",
       {}},
      {"Ablation 4", "disk anticipation window (CFQ idling)", "anticipation",
       "65 KB read MB/s (stock)", "%.1f", "", {}},
      {"Ablation 5", "write-back daemon interval", "interval",
       "65 KB write MB/s", "%.1f", "", {}},
  };
  core::IBridgeConfig off;
  off.fragment_boost = false;
  studies[0].rows = {
      {"boost on (paper)", "boost.on.write_mbps", write65k({})},
      {"boost off", "boost.off.write_mbps", write65k(off)},
  };
  for (long long eighths : {1, 4, 7}) {
    core::IBridgeConfig ib;
    ib.t_old_weight = static_cast<double>(eighths) / 8.0;
    studies[1].rows.push_back({Table::fmt("%.3f", ib.t_old_weight),
                               cat("decay.", eighths, "of8.write_mbps"),
                               write65k(ib)});
  }
  for (const auto& [label, key, policy] :
       {std::tuple{"return-based (iBridge)", "return_based",
                   core::AdmissionPolicy::kReturnBased},
        std::tuple{"always-small", "always_small",
                   core::AdmissionPolicy::kAlwaysSmall},
        std::tuple{"hot-block (Hystor-like)", "hot_block",
                   core::AdmissionPolicy::kHotBlock}}) {
    core::IBridgeConfig ib;
    ib.admission = policy;
    studies[2].rows.push_back(
        {label, std::string("admission.") + key + ".btio_s", [scale, ib] {
           return btio(scale, cluster::ClusterConfig::with_ibridge(ib), 16)
               .at("elapsed_s");
         }});
  }
  for (long long us : {0, 1200, 3000}) {
    auto cc = cluster::ClusterConfig::stock();
    cc.server.hdd.anticipation_ms = static_cast<double>(us) / 1000.0;
    studies[3].rows.push_back(
        {Table::fmt("%.1f ms", cc.server.hdd.anticipation_ms),
         cat("anticipation.", us, "us.read_mbps"),
         [scale, cc] { return run65k(scale, cc, false); }});
  }
  for (long long ms : {10, 50, 500}) {
    core::IBridgeConfig ib;
    ib.writeback_interval = sim::SimTime::millis(ms);
    studies[4].rows.push_back({Table::fmt("%lld ms", ms),
                               cat("writeback.", ms, "ms.write_mbps"),
                               write65k(ib)});
  }

  Figure f{{"ablation"}, {}, {}};
  for (const Study& study : studies) {
    for (const Row& r : study.rows) {
      f.cells.push_back([run = r.run] { return Values{{"value", run()}}; });
    }
  }
  f.render = [studies](const std::vector<Values>& v) {
    exp::Gauge g("ablation");
    std::size_t i = 0;
    for (const Study& study : studies) {
      banner(study.id, study.title);
      Table t({study.column, study.value_column});
      for (const Row& r : study.rows) {
        t.add_row({r.label, put(g, r.key, study.fmt, v[i++].at("value"))});
      }
      t.print();
      std::printf("%s", study.note);
    }
    return Gauges{g};
  };
  return f;
}

// ------------------------------------------------------------ Baselines ----
// What the classical middleware remedies buy against the same unaligned
// workload, next to iBridge:
//   independent stock      — the paper's baseline (fragments hit the disks)
//   data sieving           — reads widened to stripe boundaries (wasted
//                            transfer buys alignment)
//   two-phase collective   — aggregation + shuffle (needs synchronized
//                            phases across all ranks)
//   independent + iBridge  — the paper's contribution (transparent)
// This operationalizes the paper's related-work discussion: collective I/O
// and sieving only apply when the program can use them; iBridge fixes the
// server side for any access pattern.

constexpr std::int64_t kReq = 65 * 1024;
constexpr int kProcs = 64;

enum class Mode { kIndependent, kSieved, kCollective };

sim::Task<> baseline_rank(mpiio::MpiContext ctx, mpiio::MpiFile file,
                          mpiio::CollectiveContext* coll, Mode mode,
                          std::int64_t iters, bool write) {
  for (std::int64_t k = 0; k < iters; ++k) {
    const std::int64_t off = (k * ctx.size() + ctx.rank()) * kReq;
    switch (mode) {
      case Mode::kSieved:
        co_await read_at_sieved(file, ctx.rank(), off, kReq, 64 * 1024);
        break;
      case Mode::kCollective:
        if (write) {
          co_await coll->write_at_all(ctx.rank(), off, kReq);
        } else {
          co_await coll->read_at_all(ctx.rank(), off, kReq);
        }
        break;
      case Mode::kIndependent:
        if (write) {
          co_await file.write_at(ctx.rank(), off, kReq);
        } else {
          co_await file.read_at(ctx.rank(), off, kReq);
        }
        break;
    }
  }
}

/// The measured pass of `mode` on a fresh `cc` cluster, drain included.
/// Reads first run the same pass twice unmeasured, as measured() does for
/// Figs. 4 and 6-8, so iBridge's cache holds the fragments.
double baseline_mbps(const Scale& scale, const cluster::ClusterConfig& cc,
                     Mode mode, bool write) {
  cluster::Cluster c(cc);
  auto fh = c.create_file("f", scale.file_bytes);
  mpiio::MpiFile file(c.client(), fh);
  const std::int64_t iters =
      std::max<std::int64_t>(1, scale.access_bytes / 2 / (kProcs * kReq));
  const double bytes =
      static_cast<double>(iters) * kProcs * kReq;  // payload delivered

  double mbps = 0.0;
  for (int pass = write ? 2 : 0; pass < 3; ++pass) {
    c.restart_daemons();
    mpiio::MpiEnvironment env(c.sim(), c.client(), kProcs);
    mpiio::CollectiveContext coll(env, file);
    const sim::SimTime t0 = c.sim().now();
    env.launch([&](mpiio::MpiContext ctx) {
      return baseline_rank(ctx, file, &coll, mode, iters, write);
    });
    c.sim().run_while_pending([&] { return env.finished(); });
    mbps = bytes / 1e6 / (c.drain() - t0).to_seconds();
  }
  return mbps;
}

Figure baselines(const Scale& scale) {
  struct Approach {
    const char* label;
    const char* key;
    bool ibridge;
    Mode mode;
    bool writes;  ///< false: the approach applies to reads only
    const char* note;
  };
  const std::vector<Approach> approaches = {
      {"independent, stock", "independent_stock", false, Mode::kIndependent,
       true, "fragments hit the disks"},
      {"data sieving, stock", "sieving_stock", false, Mode::kSieved, false,
       "reads widened to 64 KB bounds"},
      {"two-phase collective, stock", "collective_stock", false,
       Mode::kCollective, true, "needs synchronized phases"},
      {"independent, iBridge", "independent_ibridge", true,
       Mode::kIndependent, true, "transparent (the paper)"},
  };
  Figure f{{"baselines"}, {}, {}};
  for (const Approach& a : approaches) {
    for (bool write : {true, false}) {
      if (write && !a.writes) continue;
      f.cells.push_back([scale, a, write] {
        return Values{
            {"mbps", baseline_mbps(scale, system_for(a.ibridge), a.mode,
                                   write)}};
      });
    }
  }
  f.render = [approaches](const std::vector<Values>& v) {
    banner("Baselines",
           "65 KB unaligned access: middleware remedies vs iBridge");
    exp::Gauge g("baselines");
    Table t({"approach", "write MB/s", "read MB/s", "notes"});
    std::size_t i = 0;
    for (const Approach& a : approaches) {
      const std::string key = a.key;
      const std::string write =
          a.writes ? put(g, key + ".write_mbps", "%.1f", v[i++].at("mbps"))
                   : "n/a";
      t.add_row({a.label, write,
                 put(g, key + ".read_mbps", "%.1f", v[i++].at("mbps")),
                 a.note});
    }
    t.print();
    std::printf("  collective I/O removes fragments by aggregation when the "
                "program can synchronize;\n  iBridge removes their cost "
                "without touching the program\n");
    return Gauges{g};
  };
  return f;
}

// ----------------------------------------------------------------- PLFS ----
// Checkpoint write phase + restart read phase.  The paper's related work
// argues PLFS removes unaligned access at write time by logging,
// "nevertheless, this approach may not be effective for regular workloads,
// as spatial locality is largely lost in the log file system".  This
// quantifies that trade against stock and iBridge:
//   write phase: N ranks write a checkpoint with unaligned 65 KB records
//   read phase : M (!= N) ranks read it back in aligned 64 KB blocks (the
//                usual restart-with-a-different-rank-count case)

constexpr int kWriters = 32;
constexpr int kReaders = 16;
constexpr std::int64_t kRecord = 65 * 1024;

template <typename File>  // mpiio::MpiFile or plfs::PlfsFile
sim::Task<> checkpoint_writer(mpiio::MpiContext x, File* f, std::int64_t n) {
  for (std::int64_t k = 0; k < n; ++k) {
    const std::int64_t off = (k * x.size() + x.rank()) * kRecord;
    co_await f->write_at(x.rank(), off, kRecord);
  }
}

template <typename File>
sim::Task<> restart_reader(mpiio::MpiContext x, File* f, std::int64_t share) {
  const std::int64_t base = x.rank() * share;
  for (std::int64_t pos = 0; pos + 64 * 1024 <= share; pos += 64 * 1024) {
    co_await f->read_at(x.rank(), base + pos, 64 * 1024);
  }
}

/// Both phases over `file`, each timed from its launch.  `write_end` runs
/// after the write phase and returns the instant it counts as finished.
template <typename File>
Values checkpoint_restart(cluster::Cluster& c, File* file, std::int64_t total,
                          const std::function<sim::SimTime()>& write_end) {
  Values out;
  {
    mpiio::MpiEnvironment env(c.sim(), c.client(), kWriters);
    const sim::SimTime t0 = c.sim().now();
    env.launch([&](mpiio::MpiContext ctx) {
      return checkpoint_writer(ctx, file, total / (kWriters * kRecord));
    });
    c.sim().run_while_pending([&] { return env.finished(); });
    out["write_mbps"] =
        static_cast<double>(total) / 1e6 / (write_end() - t0).to_seconds();
  }
  {
    mpiio::MpiEnvironment env(c.sim(), c.client(), kReaders);
    const std::int64_t share = total / kReaders;
    const sim::SimTime t0 = c.sim().now();
    env.launch([&](mpiio::MpiContext ctx) {
      return restart_reader(ctx, file, share);
    });
    c.sim().run_while_pending([&] { return env.finished(); });
    out["read_mbps"] =
        static_cast<double>((share / (64 * 1024)) * 64 * 1024 * kReaders) /
        1e6 / (c.sim().now() - t0).to_seconds();
  }
  return out;
}

Figure plfs_study(const Scale& scale) {
  const std::int64_t total =
      std::max<std::int64_t>(1, scale.access_bytes / 4 / (kWriters * kRecord)) *
      kWriters * kRecord;
  // The flat shared file is drained after the write phase; PLFS's logs
  // count as written when the last rank returns.
  const auto flat = [scale, total](bool ibridge) {
    return [scale, total, ibridge] {
      cluster::Cluster c(system_for(ibridge));
      mpiio::MpiFile file(c.client(), c.create_file("ckpt", scale.file_bytes));
      return checkpoint_restart(c, &file, total, [&c] {
        const sim::SimTime flushed = c.drain();
        c.restart_daemons();
        return flushed;
      });
    };
  };
  Figure f{{"plfs"}, {}, {}};
  f.cells = {flat(false),
             [total] {
               cluster::Cluster c(cluster::ClusterConfig::stock());
               plfs::PlfsFile file(c, "ckpt", kWriters);
               return checkpoint_restart(c, &file, total,
                                         [&c] { return c.sim().now(); });
             },
             flat(true)};
  f.render = [](const std::vector<Values>& v) {
    banner("PLFS baseline",
           "checkpoint (unaligned 65 KB writes) then restart (aligned reads)");
    exp::Gauge g("plfs");
    Table t({"system", "checkpoint write MB/s", "restart read MB/s"});
    std::size_t i = 0;
    for (const auto& [label, key] : {std::pair{"stock PVFS2", "stock"},
                                     std::pair{"PLFS middleware", "plfs"},
                                     std::pair{"iBridge", "ibridge"}}) {
      const Values& r = v[i++];
      t.add_row({label,
                 put(g, std::string(key) + ".write_mbps", "%.1f",
                     r.at("write_mbps")),
                 put(g, std::string(key) + ".read_mbps", "%.1f",
                     r.at("read_mbps"))});
    }
    t.print();
    std::printf(
        "  The paper's critique reproduces: the restart read scatters across "
        "the writers' logs\n  (locality lost), while iBridge keeps the flat "
        "layout.  Note PLFS's write-side advantage\n  depends on server page "
        "caches absorbing the log appends; with the synchronous servers\n  "
        "modelled here (see EXPERIMENTS.md) that advantage does not "
        "materialize.\n");
    return Gauges{g};
  };
  return f;
}

/// Records in `v` that the case with `seed` failed a check.
void add_failure(Values& v, std::uint64_t seed, const std::string& why) {
  std::string line =
      cat("case seed ", static_cast<long long>(seed), " FAILED: ");
  line += why;
  v.failures.push_back(line);
}

/// Prints a cell's failure lines and returns how many there were.
int print_failures(const Values& v) {
  for (const std::string& line : v.failures) {
    std::printf("  %s\n", line.c_str());
  }
  return static_cast<int>(v.failures.size());
}

// ------------------------------------------------------------- Fuzz mix ----
// The three storage policies over a population of SimCheck-generated
// workloads (check/generator.hpp): each seeded case draws a cluster
// geometry, iBridge knobs and an interleaved unaligned read/write trace.
// Unlike the paper figures (one workload shape each), this ranks the
// policies across adversarial mixes.  Every case is also checked with the
// full differential oracle (payload equivalence), one cell per case.

Figure fuzzmix(const Scale& scale) {
  Figure f{{"fuzzmix"}, {}, {}};
  for (int i = 0; i < scale.fuzz_cases; ++i) {
    f.cells.push_back([i] {
      const check::FuzzCase c =
          check::generate_case(0xF022ULL + static_cast<std::uint64_t>(i));
      const check::DiffReport d = check::run_differential(c);
      Values v;
      if (!d.ok()) {
        add_failure(v, c.seed, d.failure);
        return v;
      }
      std::int64_t bytes = 0;
      for (const auto& r : c.trace) bytes += std::min(r.size, c.file_bytes);
      v["disk_s"] = d.disk.total_elapsed.to_seconds();
      v["ibridge_s"] = d.ibridge.total_elapsed.to_seconds();
      v["ssd_s"] = d.ssd.total_elapsed.to_seconds();
      v["requests"] = static_cast<double>(d.ibridge.requests);
      v["bytes"] = static_cast<double>(bytes);
      v["events"] =
          static_cast<double>(d.disk.events + d.ibridge.events + d.ssd.events);
      v["gap"] = d.max_rel_time_gap;
      return v;
    });
  }
  f.render = [](const std::vector<Values>& v) {
    banner("FuzzMix", "policy comparison over SimCheck-generated workloads");
    const int cases = static_cast<int>(v.size());
    int failures = 0;
    double disk_s = 0, ib_s = 0, ssd_s = 0, requests = 0, bytes = 0,
           events = 0, worst_gap = 0;
    for (const Values& c : v) {
      if (print_failures(c) > 0) {
        ++failures;
        continue;
      }
      disk_s += c.at("disk_s");
      ib_s += c.at("ibridge_s");
      ssd_s += c.at("ssd_s");
      requests += c.at("requests");
      bytes += c.at("bytes");
      events += c.at("events");
      worst_gap = std::max(worst_gap, c.at("gap"));
    }
    Table t({"policy", "total time (s)", "MB/s", "vs disk"});
    for (const auto& [name, s] : {std::pair{"disk-only", disk_s},
                                  std::pair{"ibridge", ib_s},
                                  std::pair{"ssd-only", ssd_s}}) {
      t.add_row({name, Table::fmt("%.3f", s),
                 Table::fmt("%.1f", s > 0 ? bytes / 1e6 / s : 0.0),
                 Table::fmt("%.2fx", s > 0 ? disk_s / s : 0.0)});
    }
    t.print();
    std::printf("    %d cases, %.0f requests, payload equivalence held on "
                "%d/%d; max per-case divergence %.2fx\n",
                cases, requests, cases - failures, cases, 1.0 + worst_gap);
    exp::Gauge g("fuzzmix");
    g.set("cases", cases);
    g.set("failures", failures);
    g.set("requests", requests);
    g.set("bytes", bytes);
    g.set("sim.disk_s", disk_s);
    g.set("sim.ibridge_s", ib_s);
    g.set("sim.ssd_s", ssd_s);
    g.set("sim.events", events);
    g.set("worst_gap", worst_gap);
    return Gauges{g};
  };
  return f;
}

// --------------------------------------------------------------- Faults ----
// The same generated workload population replayed on iBridge clusters
// under three conditions: healthy, GC interference (churn-triggered pauses
// plus per-read latency variability) and a data-server crash/restart
// mid-write-back.  Every injected delay and crash instant derives from the
// case seed, and every scenario runs the same case seeds, so the columns
// differ only in the injected faults.  One cell per scenario, because the
// p99 is taken over every request of the scenario.

constexpr std::uint64_t kFaultSeed0 = 0xbe9cfa17ULL;
constexpr fault::Scenario kScenarios[] = {fault::Scenario::kHealthy,
                                          fault::Scenario::kGcInterference,
                                          fault::Scenario::kCrashRestart};

sim::Task<> replay_case(cluster::Cluster& cl, const check::FuzzCase& c,
                        pvfs::FileHandle fh, std::vector<std::int64_t>& lat_ns,
                        bool& done) {
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
    lat_ns.push_back((cl.sim().now() - t0).ns());
  }
  done = true;
}

/// Replays case `seed` under `scen` on a fresh iBridge cluster, appending
/// each request's latency to `lat_ns` and the fault engine's counts to
/// `fs`.  Returns the engine's failure, empty when the case held.
std::string run_fault_case(std::uint64_t seed, fault::Scenario scen,
                           std::vector<std::int64_t>& lat_ns,
                           fault::FaultEngine::Stats& fs) {
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
  auto io = replay_case(cl, c, fh, lat_ns, done);
  io.start();
  cl.sim().run_while_pending([&] { return done; });
  std::string failure;
  if (engine != nullptr) {
    cl.sim().run_while_pending([&] { return engine->done(); });
    const fault::FaultEngine::Stats s = engine->stats();
    fs.crashes += s.crashes;
    fs.recoveries += s.recoveries;
    fs.degraded_flushes += s.degraded_flushes;
    fs.gc_pauses += s.gc_pauses;
    fs.slow_reads += s.slow_reads;
    failure = engine->failure();
  }
  cl.drain();
  return failure;
}

Figure faults(const Scale& scale) {
  Figure f{{"faults"}, {}, {}};
  for (const fault::Scenario scen : kScenarios) {
    f.cells.push_back([scen, cases = scale.fault_cases] {
      std::vector<std::int64_t> lat;
      fault::FaultEngine::Stats fs;
      Values v;
      for (int k = 0; k < cases; ++k) {
        const std::uint64_t seed = kFaultSeed0 + static_cast<std::uint64_t>(k);
        const std::string failure = run_fault_case(seed, scen, lat, fs);
        if (!failure.empty()) add_failure(v, seed, failure);
      }
      std::int64_t total = 0;
      for (std::int64_t ns : lat) total += ns;
      std::sort(lat.begin(), lat.end());
      v["requests"] = static_cast<double>(lat.size());
      v["ns_per_req"] = lat.empty() ? 0.0
                                    : static_cast<double>(total) /
                                          static_cast<double>(lat.size());
      v["p99_ns"] =
          lat.empty() ? 0.0
                      : static_cast<double>(lat[std::min(
                            lat.size() - 1, lat.size() * 99 / 100)]);
      if (fs.gc_pauses > 0) {
        v["gc_pauses"] = static_cast<double>(fs.gc_pauses);
        v["slow_reads"] = static_cast<double>(fs.slow_reads);
      }
      if (fs.crashes > 0) {
        v["crashes"] = static_cast<double>(fs.crashes);
        v["recoveries"] = static_cast<double>(fs.recoveries);
        v["degraded_flushes"] = static_cast<double>(fs.degraded_flushes);
      }
      return v;
    });
  }
  f.render = [cases = scale.fault_cases](const std::vector<Values>& v) {
    banner("Faults",
           "healthy vs GC-interference vs crash/restart on one workload "
           "population");
    exp::Gauge g("faults");
    Table t({"scenario", "ns/request", "p99 (us)", "vs healthy",
             "gc pauses", "crashes"});
    const double healthy = v.front().at("ns_per_req");
    int failures = 0;
    double requests = 0;
    for (std::size_t s = 0; s < v.size(); ++s) {
      const Values& r = v[s];
      failures += print_failures(r);
      requests += r.at("requests");
      const std::string name = fault::to_string(kScenarios[s]);
      const double mean = r.at("ns_per_req");
      const auto count = [&r](const char* key) {
        const auto it = r.find(key);
        return Table::fmt("%.0f", it == r.end() ? 0.0 : it->second);
      };
      t.add_row({name, Table::fmt("%.0f", mean),
                 Table::fmt("%.1f", r.at("p99_ns") / 1000.0),
                 Table::fmt("%.2fx", healthy > 0 ? mean / healthy : 0.0),
                 count("gc_pauses"), count("crashes")});
      // Every number of the cell but the request count is a gauge key.
      for (const auto& [key, value] : r) {
        if (key != "requests") g.set(name + "." + key, value);
      }
    }
    t.print();
    std::printf("    %d cases/scenario, %.0f requests total; every injected "
                "pause and crash derives from the case seed\n",
                cases, requests);
    g.set("cases", cases);
    g.set("failures", failures);
    g.set("requests", requests);
    return Gauges{g};
  };
  return f;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> ids;
  const Scale scale = Scale::parse(argc, argv, ids);
  const std::vector<Figure> figures = {
      table1(scale), fig2(scale),     fig3(scale),      table2(scale),
      fig4(scale),   fig6(scale),     fig7(scale),      fig8(scale),
      fig9(scale),   fig11(scale),    table3(scale),    fig12(scale),
      fig13(scale),  ablation(scale), baselines(scale), plfs_study(scale),
      fuzzmix(scale), faults(scale)};

  std::vector<std::string> known;
  for (const Figure& f : figures) {
    known.insert(known.end(), f.ids.begin(), f.ids.end());
  }
  for (const std::string& id : ids) {
    if (std::find(known.begin(), known.end(), id) == known.end()) {
      std::fprintf(stderr, "%s: unknown figure '%s'; known:", argv[0],
                   id.c_str());
      for (const std::string& k : known) std::fprintf(stderr, " %s", k.c_str());
      std::fprintf(stderr, "\n");
      return 2;
    }
  }
  std::vector<const Figure*> chosen;
  std::vector<const std::function<Values()>*> batch;
  for (const Figure& f : figures) {
    const auto selected = [&](const std::string& id) {
      return std::find(f.ids.begin(), f.ids.end(), id) != f.ids.end();
    };
    if (!ids.empty() && std::none_of(ids.begin(), ids.end(), selected)) {
      continue;
    }
    chosen.push_back(&f);
    for (const auto& cell : f.cells) batch.push_back(&cell);
  }

  struct Out {
    Values values;
    double seconds = 0.0;
  };
  const exp::Stopwatch sw;
  exp::Runner runner(scale.jobs);
  const std::vector<Out> outs =
      runner.map<Out>(static_cast<int>(batch.size()), [&](int i) {
        const exp::Stopwatch cell;
        Out o;
        o.values = (*batch[static_cast<std::size_t>(i)])();
        o.seconds = cell.seconds();
        return o;
      });

  std::size_t next = 0;
  bool failed = false;
  for (const Figure* f : chosen) {
    std::vector<Values> values;
    double seconds = 0.0, longest = 0.0;
    for (std::size_t k = 0; k < f->cells.size(); ++k, ++next) {
      values.push_back(outs[next].values);
      seconds += outs[next].seconds;
      longest = std::max(longest, outs[next].seconds);
    }
    for (exp::Gauge& g : f->render(values)) {
      g.set_wall("cell_seconds", seconds);
      g.set_wall("longest_cell_seconds", longest);
      g.set_wall("jobs", scale.jobs);
      if (!g.write_file()) {
        std::fprintf(stderr, "warning: could not write BENCH_%s.json\n",
                     g.name().c_str());
      }
      const auto it = g.model().find("failures");
      if (it != g.model().end() && it->second != 0) {
        std::fprintf(stderr, "%s: BENCH_%s.json records %.0f failing case(s)\n",
                     argv[0], g.name().c_str(), it->second);
        failed = true;
      }
    }
  }
  std::printf(
      "    (model-calibrated simulation; compare shapes/ratios with the "
      "paper, see EXPERIMENTS.md)\n");
  std::fprintf(stderr, "%s: %zu cells in %.1f s at --jobs %d\n", argv[0],
               batch.size(), sw.seconds(), scale.jobs);
  return failed ? 1 : 0;
}
