// ibridge-simcheck — standalone SimCheck fuzz runner.
//
//   ibridge-simcheck [--iters N] [--seed S] [--jobs J] [--shards 0|1]
//                    [--group-size G] [--adaptive US]
//                    [--determinism] [--faults healthy|gc|crash|mixed]
//                    [--digests FILE] [--out FILE]
//
// Runs N generated cases (seeds S, S+1, ...) through the differential
// checker (disk-only vs iBridge vs SSD-only on fresh clusters, with the
// invariant oracle attached to the iBridge run).  With --determinism each
// case is additionally executed twice to confirm bit-identical replay.
//
// --faults attaches a seed-derived fault schedule (fault::make_scenario) to
// every case: GC pauses and read variability ("gc"), a data-server
// crash/restart mid-write-back ("crash"), or both ("mixed").  The same
// schedule hits all three policies, so payload equivalence — and, with
// --digests, byte-identical replay including the fault digest — is enforced
// under injected failures too.
//
// --shards selects the simulation core: 0 (the default) the classic
// single-queue core, 1 the sharded windowed core (ClusterConfig::shards).
// The two cores time events differently, so their digests differ; each is
// deterministic on its own.
//
// --group-size G maps G data servers onto each logical shard and
// --adaptive US caps the adaptive barrier window at US microseconds (the
// scale-campaign configuration).  Both are part of the *configuration* and
// change the digests; they only apply with --shards 1.
//
// --jobs J fans the independent cases over an exp::Runner thread pool; each
// job builds its own clusters, so the per-seed results — and the --digests
// file — are byte-identical at every J (the parallel-determinism acceptance
// criterion; tests/test_exp.cpp holds the corresponding regression test,
// and the CI sharded-digests job compares J = 1 and 2 on the sharded core).
// --digests FILE records one line per passing seed with the payload/image
// digests (equal across policies by construction) and the per-policy stats
// digests, for cross-run comparison with `diff`.
//
// On the first failure the trace is minimized with the delta-debugging
// shrinker (serially — shrinking is a sequential search) and written in the
// one-record-per-line text format, so the shrunk repro replays directly:
//
//   ibridge-replay ibridge <servers> < simcheck-fail-<seed>.trace
//
// Exit status: 0 when every case passes, 1 on a (shrunk) failure, 2 on
// usage errors.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "check/differential.hpp"
#include "check/generator.hpp"
#include "exp/cli.hpp"
#include "exp/runner.hpp"
#include "fault/schedule.hpp"
#include "sim/time.hpp"
#include "workloads/trace.hpp"

using namespace ibridge;
using namespace ibridge::check;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: ibridge-simcheck [--iters N] [--seed S] [--jobs J] "
               "[--shards 0|1] [--group-size G] [--adaptive US] "
               "[--determinism] [--faults healthy|gc|crash|mixed] "
               "[--digests FILE] [--out FILE]\n");
  return 2;
}

/// Derive and attach the per-case schedule (no-op for kHealthy, keeping
/// healthy runs byte-identical to pre-fault builds).
void apply_faults(FuzzCase& c, fault::Scenario scenario) {
  if (scenario == fault::Scenario::kHealthy) return;
  c.faults = fault::make_scenario(scenario, c.base.data_servers, c.seed,
                                  sim::SimTime::millis(60));
}

/// Everything one fuzz iteration produces, committed in seed order.
struct CaseResult {
  std::uint64_t seed = 0;
  std::string failure;
  DiffReport d;
};

}  // namespace

int main(int argc, char** argv) {
  int iters = 100;
  std::uint64_t seed0 = 1;
  int jobs = 1;
  int shards = 0;
  int group_size = 1;
  double adaptive_us = 0.0;
  bool determinism = false;
  fault::Scenario scenario = fault::Scenario::kHealthy;
  std::string out;
  std::string digests_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = static_cast<int>(
          exp::require_int("ibridge-simcheck", "--iters", argv[++i], 1,
                           1000000));
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed0 = exp::require_u64("ibridge-simcheck", "--seed", argv[++i]);
    } else if (std::strcmp(argv[i], "--jobs") == 0 && i + 1 < argc) {
      jobs = static_cast<int>(
          exp::require_int("ibridge-simcheck", "--jobs", argv[++i], 1, 256));
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<int>(
          exp::require_int("ibridge-simcheck", "--shards", argv[++i], 0, 1));
    } else if (std::strcmp(argv[i], "--group-size") == 0 && i + 1 < argc) {
      group_size = static_cast<int>(exp::require_int(
          "ibridge-simcheck", "--group-size", argv[++i], 1, 4096));
    } else if (std::strcmp(argv[i], "--adaptive") == 0 && i + 1 < argc) {
      adaptive_us = static_cast<double>(exp::require_int(
          "ibridge-simcheck", "--adaptive", argv[++i], 0, 1000000));
    } else if (std::strcmp(argv[i], "--determinism") == 0) {
      determinism = true;
    } else if (std::strcmp(argv[i], "--faults") == 0 && i + 1 < argc) {
      const char* mode = argv[++i];
      if (std::strcmp(mode, "healthy") == 0) {
        scenario = fault::Scenario::kHealthy;
      } else if (std::strcmp(mode, "gc") == 0) {
        scenario = fault::Scenario::kGcInterference;
      } else if (std::strcmp(mode, "crash") == 0) {
        scenario = fault::Scenario::kCrashRestart;
      } else if (std::strcmp(mode, "mixed") == 0) {
        scenario = fault::Scenario::kMixed;
      } else {
        std::fprintf(stderr, "ibridge-simcheck: unknown --faults mode '%s'\n",
                     mode);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--digests") == 0 && i + 1 < argc) {
      digests_path = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out = argv[++i];
    } else {
      return usage();
    }
  }

  // Fan the independent cases over the pool; slot i is seed0 + i regardless
  // of which worker runs it or in what order the workers finish.
  exp::Runner runner(jobs);
  const std::vector<CaseResult> results =
      runner.map<CaseResult>(iters, [&](int i) {
        CaseResult r;
        r.seed = seed0 + static_cast<std::uint64_t>(i);
        FuzzCase c = generate_case(r.seed);
        c.base.shards = shards;
        c.base.shard_group_size = group_size;
        c.base.adaptive_window_us = adaptive_us;
        apply_faults(c, scenario);
        r.d = run_differential(c);
        r.failure = r.d.failure;
        if (r.failure.empty() && determinism) {
          r.failure = check_determinism(c).failure;
        }
        return r;
      });

  // Commit in submission order: output (and the digest file) is identical
  // to a --jobs 1 run.
  std::string digest_lines;
  std::uint64_t requests = 0;
  double worst_gap = 0.0;
  for (int i = 0; i < iters; ++i) {
    const CaseResult& r = results[static_cast<std::size_t>(i)];
    if (r.failure.empty()) {
      requests += r.d.ibridge.requests;
      worst_gap = std::max(worst_gap, r.d.max_rel_time_gap);
      if (!digests_path.empty()) {
        char line[320];
        int n = std::snprintf(
            line, sizeof(line),
            "seed=%llu payload=%016llx image=%016llx "
            "stats.disk=%016llx stats.ibridge=%016llx "
            "stats.ssd=%016llx",
            static_cast<unsigned long long>(r.seed),
            static_cast<unsigned long long>(r.d.ibridge.payload_digest),
            static_cast<unsigned long long>(r.d.ibridge.image_digest),
            static_cast<unsigned long long>(r.d.disk.stats_digest),
            static_cast<unsigned long long>(r.d.ibridge.stats_digest),
            static_cast<unsigned long long>(r.d.ssd.stats_digest));
        if (r.d.ibridge.faulted && n > 0 &&
            static_cast<std::size_t>(n) < sizeof(line)) {
          std::snprintf(line + n, sizeof(line) - static_cast<std::size_t>(n),
                        " fault=%016llx",
                        static_cast<unsigned long long>(
                            r.d.ibridge.fault_digest));
        }
        digest_lines += line;
        digest_lines += '\n';
      }
      if ((i + 1) % 10 == 0 || i + 1 == iters) {
        std::printf("[%d/%d] ok (last seed %llu)\n", i + 1, iters,
                    static_cast<unsigned long long>(r.seed));
        std::fflush(stdout);
      }
      continue;
    }

    std::printf("seed %llu FAILED: %s\n",
                static_cast<unsigned long long>(r.seed), r.failure.c_str());
    FuzzCase c = generate_case(r.seed);
    c.base.shards = shards;
    c.base.shard_group_size = group_size;
    c.base.adaptive_window_us = adaptive_us;
    apply_faults(c, scenario);
    std::printf("shrinking (%zu records)...\n", c.trace.size());
    auto fails = [&](const workloads::Trace& t) {
      FuzzCase cand = c;
      cand.trace = t;
      if (!run_differential(cand).ok()) return true;
      return determinism && !check_determinism(cand).ok();
    };
    ShrinkResult s = shrink(c.trace, fails);
    std::printf("shrunk to %zu records in %zu evaluations\n", s.trace.size(),
                s.evaluations);

    const std::string path =
        out.empty() ? "simcheck-fail-" + std::to_string(r.seed) + ".trace"
                    : out;
    std::ofstream os(path);
    workloads::write_trace(os, s.trace);
    std::printf("wrote %s — replay with:\n  ibridge-replay ibridge %d < %s\n",
                path.c_str(), c.base.data_servers, path.c_str());
    return 1;
  }

  if (!digests_path.empty()) {
    std::ofstream os(digests_path);
    os << digest_lines;
    if (!os) {
      std::fprintf(stderr, "ibridge-simcheck: cannot write %s\n",
                   digests_path.c_str());
      return 2;
    }
  }

  std::printf("%d cases passed (%llu iBridge requests, max policy timing "
              "divergence %.2fx)\n",
              iters, static_cast<unsigned long long>(requests),
              1.0 + worst_gap);
  return 0;
}
