// ibridge-replay — replay a text-format trace through a simulated cluster.
//
//   ibridge-replay <stock|ibridge|ssd-only> [servers] [runs] < trace.txt
//
// Prints the Table III metric (average request service time) per run;
// repeated runs on the same cluster show iBridge's warm-cache behaviour.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>

#include "cluster/cluster.hpp"
#include "exp/cli.hpp"
#include "workloads/trace.hpp"

using namespace ibridge;
using namespace ibridge::workloads;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: ibridge-replay <stock|ibridge|ssd-only> [servers] "
                 "[runs] < trace.txt\n");
    return 2;
  }
  const std::string mode = argv[1];
  cluster::ClusterConfig cc;
  if (mode == "stock") {
    cc = cluster::ClusterConfig::stock();
  } else if (mode == "ibridge") {
    cc = cluster::ClusterConfig::with_ibridge();
  } else if (mode == "ssd-only") {
    cc = cluster::ClusterConfig::ssd_only();
  } else {
    std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
    return 2;
  }
  if (argc > 2) {
    cc.data_servers = static_cast<int>(
        exp::require_int("ibridge-replay", "servers", argv[2], 1, 1024));
  }
  const int runs =
      argc > 3 ? static_cast<int>(exp::require_int("ibridge-replay", "runs",
                                                   argv[3], 1, 1000000))
               : 1;

  Trace trace;
  try {
    trace = read_trace(std::cin);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (trace.empty()) {
    std::fprintf(stderr, "empty trace\n");
    return 1;
  }

  std::int64_t max_end = 0;
  for (const auto& r : trace) max_end = std::max(max_end, r.offset + r.size);

  cluster::Cluster c(cc);
  ReplayConfig rc;
  rc.file_bytes = max_end;
  std::printf("%s, %d servers, %zu records, %.1f MB file\n", mode.c_str(),
              cc.data_servers, trace.size(),
              static_cast<double>(max_end) / 1e6);
  for (int run = 0; run < runs; ++run) {
    const auto r = replay_trace(c, trace, rc);
    std::printf("run %d: avg service %7.2f ms   (%.2f s total, %.1f MB/s)\n",
                run, r.avg_request_ms, r.elapsed.to_seconds(), r.mbps());
  }
  return 0;
}
