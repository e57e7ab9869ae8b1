#include "check/generator.hpp"

#include <algorithm>
#include <utility>

#include "fsim/filesystem.hpp"
#include "sim/rng.hpp"

namespace ibridge::check {

namespace {

std::int64_t pick(sim::Rng& rng, std::initializer_list<std::int64_t> choices) {
  const auto* first = choices.begin();
  return first[rng.below(choices.size())];
}

std::int64_t clamp_off(std::int64_t off, std::int64_t size,
                       std::int64_t file_bytes) {
  return std::clamp<std::int64_t>(off, 0, file_bytes - size);
}

}  // namespace

FuzzCase generate_case(std::uint64_t seed, const GenLimits& lim) {
  sim::Rng rng(seed);
  FuzzCase c;
  c.seed = seed;

  // ---- cluster geometry ----
  cluster::ClusterConfig& cfg = c.base;
  cfg.data_servers = static_cast<int>(rng.uniform(1, lim.max_servers));
  cfg.stripe_unit = pick(rng, {4 << 10, 8 << 10, 16 << 10, 64 << 10});
  cfg.client_nodes = static_cast<int>(rng.uniform(1, 2));
  cfg.procs_per_node = 4;
  cfg.client_seed = seed ^ 0x9e3779b97f4a7c15ULL;

  // Payload comparison across policies needs byte-accurate backing stores.
  cfg.server.data_mode = fsim::DataMode::kVerify;
  cfg.server.rmw_page_bytes = sim::Bytes{rng.chance(0.25) ? 0 : 4096};

  // ---- iBridge knobs (small capacities force eviction and cleaning) ----
  core::IBridgeConfig& ib = cfg.server.ibridge;
  ib.enabled = true;
  ib.log_segment_bytes = pick(rng, {32 << 10, 64 << 10});
  ib.ssd_cache_bytes =
      ib.log_segment_bytes * rng.uniform(4, 16);  // 128 KB .. 1 MB
  ib.fragment_threshold = rng.uniform(8, 40) << 10;
  ib.random_threshold = rng.uniform(8, 40) << 10;
  switch (rng.below(3)) {
    case 0: ib.admission = core::AdmissionPolicy::kReturnBased; break;
    case 1: ib.admission = core::AdmissionPolicy::kAlwaysSmall; break;
    default: ib.admission = core::AdmissionPolicy::kHotBlock; break;
  }
  if (rng.chance(0.5)) {
    ib.partition_mode = core::PartitionMode::kStatic;
    ib.static_fragment_share = 0.25 + 0.25 * static_cast<double>(rng.below(3));
  } else {
    ib.partition_mode = core::PartitionMode::kDynamic;
  }
  // Frequent write-back wake-ups interleave the daemon with the foreground
  // stream (more oracle-visible states per case).
  ib.writeback_interval = sim::SimTime::millis(rng.uniform(5, 50));

  // ---- file and trace ----
  c.file_bytes =
      (rng.uniform(lim.min_file_bytes, lim.max_file_bytes) / 4096) * 4096;
  const std::int64_t unit = cfg.stripe_unit;
  const std::int64_t frag = ib.fragment_threshold;

  const int ops = static_cast<int>(rng.uniform(lim.min_ops, lim.max_ops));
  c.trace.reserve(static_cast<std::size_t>(ops));
  std::vector<std::pair<std::int64_t, std::int64_t>> written;
  for (int i = 0; i < ops; ++i) {
    workloads::TraceRecord r;
    r.write = rng.chance(0.55);

    const double u = rng.uniform01();
    if (u < 0.40) {
      // Fragment-sized: below the (randomized) threshold.
      r.size = rng.uniform(512, std::max<std::int64_t>(1024, frag - 1));
    } else if (u < 0.75) {
      // Medium: around one or two stripe units, mostly unaligned.  The
      // threshold can exceed a small unit, so anchor the low end at
      // whichever is smaller to keep the range well-formed.
      r.size = rng.uniform(std::min(frag, unit), 2 * unit + unit / 2);
    } else {
      // Large multi-server span.
      r.size = rng.uniform(2 * unit, 6 * unit);
    }
    r.size = std::clamp<std::int64_t>(r.size, 1, c.file_bytes);

    if (!written.empty() && rng.chance(0.35)) {
      // Overlap (partially or fully) an earlier write — exercises trim,
      // read-your-writes through the cache, and coverage stitching.
      const auto& [eo, es] = written[rng.below(written.size())];
      r.offset = clamp_off(eo + rng.uniform(-es, es), r.size, c.file_bytes);
    } else if (rng.chance(0.30)) {
      // Stripe-aligned.
      const std::int64_t units = (c.file_bytes - r.size) / unit;
      r.offset = units > 0 ? rng.uniform(0, units) * unit : 0;
    } else {
      // Arbitrary unaligned offset.
      r.offset = rng.uniform(0, c.file_bytes - r.size);
    }

    c.trace.push_back(r);
    if (r.write) written.emplace_back(r.offset, r.size);
  }
  return c;
}

cluster::ClusterConfig make_config(const FuzzCase& c, Policy p) {
  cluster::ClusterConfig cfg = c.base;
  switch (p) {
    case Policy::kIBridge:
      break;  // the case's native flavour
    case Policy::kDiskOnly:
      cfg.server.ibridge = core::IBridgeConfig::stock();
      cfg.server.storage_mode = pvfs::StorageMode::kDisk;
      break;
    case Policy::kSsdOnly:
      cfg.server.ibridge = core::IBridgeConfig::stock();
      cfg.server.storage_mode = pvfs::StorageMode::kSsdOnly;
      break;
  }
  return cfg;
}

std::uint64_t record_seed(std::uint64_t case_seed, std::size_t index) {
  std::uint64_t s = case_seed ^ (0xd1b54a32d192ed03ULL * (index + 1));
  return sim::splitmix64(s);
}

void fill_payload(std::span<std::byte> out, std::uint64_t seed) {
  std::uint64_t state = seed;
  std::size_t i = 0;
  while (i < out.size()) {
    std::uint64_t word = sim::splitmix64(state);
    for (int b = 0; b < 8 && i < out.size(); ++b, ++i) {
      out[i] = static_cast<std::byte>(word & 0xff);
      word >>= 8;
    }
  }
}

ShrinkResult shrink(const workloads::Trace& failing,
                    const TracePredicate& still_fails,
                    std::size_t max_evals) {
  ShrinkResult res{failing, 0};
  auto fails = [&](const workloads::Trace& t) {
    if (res.evaluations >= max_evals || t.empty()) return false;
    ++res.evaluations;
    return still_fails(t);
  };

  // Phase 1: delta-debugging chunk removal at halving granularity.
  for (std::size_t chunk = std::max<std::size_t>(1, res.trace.size() / 2);;
       chunk /= 2) {
    std::size_t start = 0;
    while (start < res.trace.size() && res.trace.size() > 1) {
      workloads::Trace t;
      t.reserve(res.trace.size());
      const std::size_t end = std::min(start + chunk, res.trace.size());
      t.insert(t.end(), res.trace.begin(),
               res.trace.begin() + static_cast<std::ptrdiff_t>(start));
      t.insert(t.end(), res.trace.begin() + static_cast<std::ptrdiff_t>(end),
               res.trace.end());
      if (fails(t)) {
        res.trace = std::move(t);  // removed — retry same position
      } else {
        start = end;
      }
    }
    if (chunk <= 1) break;
  }

  // Phase 2: per-record simplification — halve the size, then page-align,
  // then zero the offset.  Each accepted step keeps the trace failing.
  for (std::size_t i = 0; i < res.trace.size(); ++i) {
    while (res.trace[i].size > 512) {
      workloads::Trace t = res.trace;
      t[i].size = std::max<std::int64_t>(512, t[i].size / 2);
      if (!fails(t)) break;
      res.trace = std::move(t);
    }
    if (res.trace[i].offset % 4096 != 0) {
      workloads::Trace t = res.trace;
      t[i].offset -= t[i].offset % 4096;
      if (fails(t)) res.trace = std::move(t);
    }
    if (res.trace[i].offset != 0) {
      workloads::Trace t = res.trace;
      t[i].offset = 0;
      if (fails(t)) res.trace = std::move(t);
    }
  }
  return res;
}

}  // namespace ibridge::check
