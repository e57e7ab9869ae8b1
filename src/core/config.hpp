// iBridge configuration knobs.
//
// Defaults follow the paper's evaluation setup (Section III-A): 20 KB
// thresholds for both regular random requests and fragments, a 10 GB SSD
// cache partition, and dynamic SSD-space partitioning between the two
// request classes.  (The 1-second T-value reporting interval is
// pvfs::kTReportInterval.)
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace ibridge::core {

/// How SSD cache space is split between regular random requests and
/// fragments (Section II-B / Figure 12).
enum class PartitionMode {
  kDynamic,  ///< proportional to per-class average return (the paper's design)
  kStatic,   ///< fixed ratio (the 1:1 / 1:2 baselines of Figure 12)
};

/// Which requests are admitted into the SSD cache.  kReturnBased is the
/// paper's contribution; the others are baselines from its related-work
/// comparison, used by bench_paper's Ablation 3:
///   kAlwaysSmall — cache every request below the size threshold ("SSD is
///     simply used for caching small/random data", which the paper
///     distinguishes itself from);
///   kHotBlock   — Hystor-style: cache small requests to regions that have
///     been accessed repeatedly (frequency-based, fragment-unaware).
enum class AdmissionPolicy {
  kReturnBased,
  kAlwaysSmall,
  kHotBlock,
};

struct IBridgeConfig {
  /// Master switch: disabled reproduces the stock PVFS2 system.
  bool enabled = true;

  /// Sub-requests of multi-server parents smaller than this are fragments.
  /// The client tags them with this value whether or not iBridge is on.
  std::int64_t fragment_threshold = 20 * 1024;

  /// Stand-alone requests smaller than this are regular random requests.
  std::int64_t random_threshold = 20 * 1024;

  /// SSD cache partition size (bytes of cached payload).
  std::int64_t ssd_cache_bytes = 10LL * 1000 * 1000 * 1000;

  /// Log segment size for the SSD cache file.
  std::int64_t log_segment_bytes = 4 << 20;

  /// Partitioning policy between the two request classes.
  PartitionMode partition_mode = PartitionMode::kDynamic;
  /// For kStatic: fraction of capacity given to fragments
  /// (1:1 -> 0.5, 1:2 -> 2.0/3.0).
  double static_fragment_share = 0.5;

  /// Decay weights of Equation (1): T_i = old_weight*T_{i-1} +
  /// (1-old_weight)*(new sample).  The paper uses 1/8 and 7/8.
  double t_old_weight = 1.0 / 8.0;

  /// Apply the striping-magnification boost of Equation (3).
  bool fragment_boost = true;

  /// Admission policy (kReturnBased is iBridge; others are baselines).
  AdmissionPolicy admission = AdmissionPolicy::kReturnBased;
  /// kHotBlock: region granularity for the heat map (a region is hot from
  /// its second access on).
  std::int64_t hot_block_region = 1 << 20;
  /// kHotBlock: tracked-region cap for the heat map.  When the map grows
  /// past this, every count is halved and zeroed regions are swept, so the
  /// map stays bounded over arbitrarily long runs while hot regions keep
  /// their relative standing (a coarse exponential decay).
  std::int64_t hot_block_max_regions = 1 << 16;

  /// Write-back daemon wake interval (its per-wake budget is fixed in
  /// core/cache.cpp).
  sim::SimTime writeback_interval = sim::SimTime::millis(50);

  /// Convenience: the stock (no-SSD) configuration.
  static IBridgeConfig stock() {
    IBridgeConfig c;
    c.enabled = false;
    return c;
  }
};

}  // namespace ibridge::core
