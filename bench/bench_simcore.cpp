// bench_simcore — event-engine hot-path microbenchmark.
//
// Times sim::Simulator (sim::InlineEvent callbacks + 4-ary slot heap) on a
// fan of self-rescheduling event chains whose lambdas capture 32 bytes —
// more than libstdc++'s 16-byte std::function buffer, within InlineEvent's
// 48-byte one — and counts heap allocations with the shared global
// operator new counter (bench/alloc_count.hpp).
//
//   bench_simcore [--events N] [--chains N] [--reps N] [--check]
//
// --check exits 1 if a warm repetition (any after the first) allocates
// while its events run: a closure that outgrows InlineEvent's buffer, or a
// queue that regrows past reserve(), shows up as a nonzero count (the CI
// bench-gauge job runs this).  Emits BENCH_simcore.json.
//
// A second section exercises the sharded core (sim::ShardGroup): the same
// event volume spread over 4 shards with cross-shard mailbox traffic.  The
// per-run checksum folds every chain's (shard, time, accumulator) history
// in drain order; every rep must reproduce it, and its event, window and
// post counts are tracked model gauges.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/alloc_count.hpp"
#include "exp/cli.hpp"
#include "exp/gauge.hpp"
#include "sim/shard.hpp"
#include "sim/simulator.hpp"

namespace {

using ibridge::sim::SimTime;

// --------------------------------------------------------------- workload ----

volatile std::uint64_t g_sink = 0;

/// One link of a self-rescheduling chain.  The lambda captures 32 bytes:
/// engine reference + id + remaining + acc.
void chain(ibridge::sim::Simulator& eng, std::uint64_t id,
           std::uint64_t remaining, std::uint64_t acc) {
  if (remaining == 0) {
    g_sink = g_sink + acc;
    return;
  }
  eng.schedule(SimTime::nanos(static_cast<std::int64_t>(1 + (acc & 7))),
               [&eng, id, remaining, acc] {
                 chain(eng, id, remaining - 1,
                       acc * 6364136223846793005ULL + id);
               });
}

struct Measurement {
  double ns_per_event = 0;
  std::uint64_t events = 0;
  std::uint64_t first_rep_allocs = 0;
  std::uint64_t warm_allocs = 0;  ///< most any later repetition made
};

Measurement measure(std::int64_t total_events, int chains, int reps) {
  const auto per_chain = static_cast<std::uint64_t>(total_events / chains);
  Measurement m;
  double best_s = 0;
  // Repetition 0 warms caches and the allocator; timing keeps the minimum
  // of the warm ones (least-noise estimator for a deterministic workload).
  for (int rep = 0; rep <= reps; ++rep) {
    ibridge::sim::Simulator eng;
    eng.reserve(static_cast<std::size_t>(chains) + 16);
    const std::uint64_t a0 = ibridge::bench::alloc_count();
    ibridge::exp::Stopwatch sw;
    for (int c = 0; c < chains; ++c) {
      chain(eng, static_cast<std::uint64_t>(c), per_chain,
            0x9E3779B97F4A7C15ULL ^ static_cast<std::uint64_t>(c));
    }
    eng.run();
    const double s = sw.seconds();
    const std::uint64_t allocs = ibridge::bench::alloc_count() - a0;
    m.events = eng.events_executed();
    if (rep == 0) {
      m.first_rep_allocs = allocs;
    } else {
      m.warm_allocs = std::max(m.warm_allocs, allocs);
      if (rep == 1 || s < best_s) best_s = s;
    }
  }
  m.ns_per_event = best_s * 1e9 / static_cast<double>(m.events);
  return m;
}

// --------------------------------------------------------- shard section ----

/// Self-rescheduling chains on a sim::ShardGroup: links are shard-local
/// (1-8 ns apart) except every 8th, which crosses to the next shard through
/// the mailbox/barrier path.  The 1 us lookahead makes windows thousands of
/// events wide, so the barrier cost is amortized.  Terminal links fold into
/// a per-shard cell
/// in drain order; the mixed checksum therefore depends on every link's
/// (shard, time, accumulator) history and catches any schedule divergence.
struct ParWorkload {
  ibridge::sim::ShardGroup* group = nullptr;
  std::vector<std::uint64_t> cells;  // one per shard, touched shard-locally

  void link(int s, std::uint64_t id, std::uint64_t remaining,
            std::uint64_t acc) {
    ibridge::sim::Simulator& sim = group->shard(s);
    acc = acc * 6364136223846793005ULL + id +
          static_cast<std::uint64_t>(sim.now().ns());
    if (remaining == 0) {
      std::uint64_t& cell = cells[static_cast<std::size_t>(s)];
      cell = cell * 0x100000001b3ULL ^ acc;
      return;
    }
    if ((remaining & 7) == 0) {
      const int dst = (s + 1) % group->shards();
      group->post(sim, group->shard(dst),
                  sim.now() + group->lookahead() +
                      ibridge::sim::SimTime::nanos(
                          static_cast<std::int64_t>(acc & 63)),
                  ibridge::sim::InlineEvent([this, dst, id, remaining, acc] {
                    link(dst, id, remaining - 1, acc);
                  }));
      return;
    }
    sim.schedule(
        SimTime::nanos(static_cast<std::int64_t>(1 + (acc & 7))),
        ibridge::sim::InlineEvent([this, s, id, remaining, acc] {
          link(s, id, remaining - 1, acc);
        }));
  }
};

struct ParResult {
  double secs = 0;
  std::uint64_t checksum = 0;
  std::uint64_t events = 0;
  std::uint64_t windows = 0;
  std::uint64_t posts = 0;
};

/// One sharded run over `shards` logical shards.  Every rep must reproduce
/// the schedule — and so checksum/events/windows/posts; only `secs` varies.
ParResult measure_par(int shards, std::int64_t total_events, int reps) {
  constexpr int kChainsPerShard = 64;
  const auto links = static_cast<std::uint64_t>(
      std::max<std::int64_t>(1, total_events / (shards * kChainsPerShard)));
  ParResult r;
  double best_s = 0;
  for (int rep = 0; rep <= reps; ++rep) {
    ibridge::sim::ShardGroup group(shards, SimTime::micros(1));
    ParWorkload w;
    w.group = &group;
    w.cells.assign(static_cast<std::size_t>(shards), 0);
    for (int s = 0; s < shards; ++s) {
      group.shard(s).reserve(kChainsPerShard + 64);
      for (int c = 0; c < kChainsPerShard; ++c) {
        const auto id = static_cast<std::uint64_t>(s * kChainsPerShard + c);
        group.shard(s).schedule_at(
            SimTime::nanos(static_cast<std::int64_t>(1 + id % 97)),
            ibridge::sim::InlineEvent([&w, s, id, links] {
              w.link(s, id, links, 0x9E3779B97F4A7C15ULL ^ id);
            }));
      }
    }
    ibridge::exp::Stopwatch sw;
    group.run_all();
    const double s = sw.seconds();
    std::uint64_t cs = 0;
    for (std::size_t i = 0; i < w.cells.size(); ++i) {
      cs = cs * 0x9E3779B97F4A7C15ULL ^ (w.cells[i] + i);
    }
    if (rep == 0) {
      r.checksum = cs;
      r.events = group.events_executed();
      r.windows = group.windows_run();
      r.posts = group.posts_delivered();
      best_s = s;
    } else {
      if (cs != r.checksum) {
        std::fprintf(stderr, "bench_simcore: nondeterministic sharded rep\n");
        std::exit(1);
      }
      if (s < best_s) best_s = s;
    }
  }
  r.secs = best_s;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using ibridge::exp::require_int;
  std::int64_t events = 1'000'000;
  int chains = 256;
  int reps = 3;
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_simcore: %s needs a value\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--events") {
      events = require_int("bench_simcore", "--events", next(), 1000,
                           1'000'000'000);
    } else if (a == "--chains") {
      chains = static_cast<int>(
          require_int("bench_simcore", "--chains", next(), 1, 65536));
    } else if (a == "--reps") {
      reps = static_cast<int>(
          require_int("bench_simcore", "--reps", next(), 1, 100));
    } else if (a == "--check") {
      check = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_simcore [--events N] [--chains N] [--reps N] "
                   "[--check]\n");
      return 2;
    }
  }
  if (events < chains) chains = static_cast<int>(events);

  const Measurement m = measure(events, chains, reps);

  std::printf("sim-core event engine, %llu events x %d chains\n",
              static_cast<unsigned long long>(m.events), chains);
  std::printf("  %.1f ns/event; allocations: %llu in the first repetition, "
              "at most %llu in a warm one\n",
              m.ns_per_event,
              static_cast<unsigned long long>(m.first_rep_allocs),
              static_cast<unsigned long long>(m.warm_allocs));

  // ---- sharded core: 4 shards -------------------------------------------
  constexpr int kParShards = 4;
  const ParResult par = measure_par(kParShards, events, reps);
  std::printf("sharded core, %d shards, %llu events, %llu windows, %llu "
              "cross-shard posts\n",
              kParShards, static_cast<unsigned long long>(par.events),
              static_cast<unsigned long long>(par.windows),
              static_cast<unsigned long long>(par.posts));
  std::printf("  %-34s %8.3f s  %6.1f ns/event\n", "one drain thread",
              par.secs, par.secs * 1e9 / static_cast<double>(par.events));

  ibridge::exp::Gauge g("simcore");
  g.set("events", static_cast<double>(m.events));
  g.set("chains", chains);
  g.set("allocs.first_rep", static_cast<double>(m.first_rep_allocs));
  g.set("allocs.warm_max", static_cast<double>(m.warm_allocs));
  // The "par." prefix names the sharded section; the keys keep their
  // tracked baseline names.
  g.set("par.shards", kParShards);
  g.set("par.events", static_cast<double>(par.events));
  g.set("par.windows", static_cast<double>(par.windows));
  g.set("par.posts", static_cast<double>(par.posts));
  g.set_wall("ns_per_event", m.ns_per_event);
  g.set_wall("par.secs", par.secs);
  if (!g.write_file()) {
    std::fprintf(stderr, "warning: could not write BENCH_simcore.json\n");
  }

  if (check && m.warm_allocs != 0) {
    std::fprintf(stderr,
                 "bench_simcore: FAIL --check (a warm repetition made %llu "
                 "allocations while its events ran; need 0)\n",
                 static_cast<unsigned long long>(m.warm_allocs));
    return 1;
  }
  return 0;
}
