// Shared helpers for the simulation benches: bench_paper (every table and
// figure of the paper), bench_faults and bench_fuzzmix.
//
// All three take the same arguments:
//   --full     the paper's full 10 GB sweeps, 40 BTIO steps and larger
//              trace/case counts (slow)
//   --jobs N   run independent cells on an exp::Runner pool of N threads.
//              Results are committed in submission order, so the printed
//              tables and the model section of every BENCH_<name>.json are
//              identical at every N (only the "wall" section changes).
// The default accesses a smaller slice so the whole suite finishes in
// seconds; shapes are unaffected because throughput is steady-state.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "exp/cli.hpp"

namespace ibridge::bench {

inline constexpr std::int64_t kMB = 1000 * 1000;
inline constexpr std::int64_t kGB = 1000 * kMB;

struct Scale {
  std::int64_t file_bytes = 10 * kGB;
  std::int64_t access_bytes = 400 * kMB;  // per mpi-io-test/ior run
  int btio_steps = 2;                     // of the class-C 40
  std::size_t trace_requests = 2'000;
  int jobs = 1;  // exp::Runner pool size for independent cells

  /// Parses `[--full] [--jobs N]`; plain words go to `*names` when the
  /// bench takes them (bench_paper's figure ids).  Any other argument, a
  /// `--jobs` without a value included, prints a usage line and exits 2,
  /// the tools' usage-error code, so a typo cannot quietly run something
  /// else.
  static Scale parse(int argc, char** argv,
                     std::vector<std::string>* names = nullptr) {
    Scale s;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--full") {
        s.access_bytes = 10 * kGB;
        s.btio_steps = 40;
        s.trace_requests = 20'000;
      } else if (arg == "--jobs" && i + 1 < argc) {
        s.jobs = static_cast<int>(
            exp::require_int(argv[0], "--jobs", argv[++i], 1, 256));
      } else if (names != nullptr && !arg.empty() && arg[0] != '-') {
        names->push_back(arg);
      } else {
        std::fprintf(stderr, "%s: bad argument '%s'\nusage: %s [--full] "
                     "[--jobs N]%s\n", argv[0], arg.c_str(), argv[0],
                     names != nullptr ? " [figure...]" : "");
        std::exit(2);
      }
    }
    return s;
  }
};

inline void banner(const char* id, const char* what) {
  std::printf("\n=== %s: %s ===\n", id, what);
}

inline void footnote() {
  std::printf(
      "    (model-calibrated simulation; compare shapes/ratios with the "
      "paper, see EXPERIMENTS.md)\n");
}

}  // namespace ibridge::bench
