// The Figure 3 striping-magnification workload.
//
// A 16-process group synchronously reads constant-size requests of k full
// stripe units, optionally plus a 1 KB fragment.  Request i of rank r starts
// at (i * 16 + r) * servers * unit, so the k units land on servers 0..k-1
// and the fragment on server k.  Meanwhile a 4-process group reads random
// whole stripe units that all live on server k, so the fragment contends
// with real work there.  The paper's trend: the fragment's throughput
// penalty grows with k, and a barrier between iterations amplifies it.
// bench_paper's fig3 and ibridge-trace both drive this one workload.
#pragma once

#include <cstdint>

#include "workloads/common.hpp"

namespace ibridge::workloads {

struct MagnificationConfig {
  int k = 4;                    ///< full stripe units per request
  bool fragment = true;         ///< add the trailing 1 KB (lands on server k)
  bool barrier = true;          ///< barrier after every request
  std::int64_t requests = 8;    ///< synchronous requests per rank

  /// Bytes per group request for a cluster striped in `stripe_unit`s.
  std::int64_t request_bytes(std::int64_t stripe_unit) const {
    return static_cast<std::int64_t>(k) * stripe_unit + (fragment ? 1024 : 0);
  }
};

/// Run both groups on a fresh 8 GB file "data" in `cluster` until the
/// requesting group finishes, then drain().  `io_elapsed` ends when the
/// group finishes; `bytes` and `requests` count the group's requests only.
WorkloadResult run_magnification(cluster::Cluster& cluster,
                                 const MagnificationConfig& cfg);

}  // namespace ibridge::workloads
