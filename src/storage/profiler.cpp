#include "storage/profiler.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace ibridge::storage {

SeekProfile::SeekProfile(std::vector<Sample> samples)
    : samples_(std::move(samples)) {
  std::sort(samples_.begin(), samples_.end(),
            [](const Sample& a, const Sample& b) {
              return a.distance < b.distance;
            });
  // Enforce monotonicity: a longer seek cannot be faster.
  for (std::size_t i = 1; i < samples_.size(); ++i) {
    samples_[i].ms = std::max(samples_[i].ms, samples_[i - 1].ms);
  }
}

sim::SimTime SeekProfile::seek_time(std::int64_t d) const {
  if (samples_.empty() || d <= 0) return sim::SimTime::zero();
  if (d <= samples_.front().distance) {
    return sim::SimTime::from_seconds(samples_.front().ms / 1e3);
  }
  if (d >= samples_.back().distance) {
    return sim::SimTime::from_seconds(samples_.back().ms / 1e3);
  }
  auto it = std::lower_bound(
      samples_.begin(), samples_.end(), d,
      [](const Sample& s, std::int64_t dist) { return s.distance < dist; });
  const Sample& hi = *it;
  const Sample& lo = *(it - 1);
  const double t = static_cast<double>(d - lo.distance) /
                   static_cast<double>(hi.distance - lo.distance);
  const double ms = lo.ms + t * (hi.ms - lo.ms);
  return sim::SimTime::from_seconds(ms / 1e3);
}

namespace {

// The probe plan: 4 KB probes, averaged over 4 hops at each of 24
// log-spaced seek distances, and a 64 MB streaming run for peak bandwidth.
constexpr std::int64_t kProbeSectors = 8;
constexpr int kProbesPerDistance = 4;
constexpr int kDistancePoints = 24;
constexpr std::int64_t kStreamBytes = 64 << 20;

struct ProfileResult {
  std::vector<SeekProfile::Sample> samples;
  double stream_ms = 0.0;
  double stream_write_ms = 0.0;
  double near_ms = 0.0;  // positioning cost of a minimal-distance hop
  double write_small_ms = 0.0;  // discontinuous small-write surcharge
  double write_large_ms = 0.0;  // discontinuous large-write surcharge
};

sim::Task<> run_probes(sim::Simulator& sim, BlockDevice& dev,
                       ProfileResult& out, bool& done) {
  const std::int64_t cap = dev.capacity_sectors();

  // 1. Streaming read to measure peak bandwidth.
  {
    const std::int64_t total = kStreamBytes / kSectorBytes;
    const std::int64_t chunk = 2048;  // 1 MB per request, back to back
    const sim::SimTime t0 = sim.now();
    for (std::int64_t pos = 0; pos < total; pos += chunk) {
      co_await dev.submit(
          {IoDirection::kRead, pos, std::min(chunk, total - pos), 0});
    }
    out.stream_ms = (sim.now() - t0).to_millis();
  }

  // 2. Seek-distance ladder: for each distance d, hop back and forth between
  //    lbn and lbn+d so every probe incurs a seek of exactly d.
  const double max_d = static_cast<double>(cap) * 0.45;
  const double min_d = 1024.0;  // 512 KB
  for (int i = 0; i < kDistancePoints; ++i) {
    const double frac = static_cast<double>(i) / (kDistancePoints - 1);
    const auto d = static_cast<std::int64_t>(
        min_d * std::pow(max_d / min_d, frac));
    const std::int64_t base = cap / 4;
    double total_ms = 0.0;
    for (int p = 0; p < kProbesPerDistance; ++p) {
      const std::int64_t lbn = (p % 2 == 0) ? base : base + d;
      const sim::SimTime t0 = sim.now();
      co_await dev.submit({IoDirection::kRead, lbn, kProbeSectors, 0});
      total_ms += (sim.now() - t0).to_millis();
    }
    out.samples.push_back(
        {d, total_ms / static_cast<double>(kProbesPerDistance)});
  }

  // 3. Near-hop probe: positioning cost with negligible seek distance,
  //    approximating the rotational-latency component.
  {
    double total_ms = 0.0;
    const int reps = 8;
    std::int64_t lbn = cap / 3;
    for (int p = 0; p < reps; ++p) {
      // Skip two sectors: breaks contiguity at a tiny distance.
      lbn += kProbeSectors + 2;
      const sim::SimTime t0 = sim.now();
      co_await dev.submit({IoDirection::kRead, lbn, kProbeSectors, 0});
      total_ms += (sim.now() - t0).to_millis();
    }
    out.near_ms = total_ms / reps;
  }

  // 4. Streaming write bandwidth.
  {
    const std::int64_t total = kStreamBytes / kSectorBytes;
    const std::int64_t chunk = 2048;
    const sim::SimTime t0 = sim.now();
    for (std::int64_t pos = 0; pos < total; pos += chunk) {
      co_await dev.submit(
          {IoDirection::kWrite, pos, std::min(chunk, total - pos), 0});
    }
    out.stream_write_ms = (sim.now() - t0).to_millis();
  }

  // 5. Discontinuous-write surcharge: hop back and forth at a fixed medium
  //    distance, once with reads and once with writes, at a small and a
  //    large request size; the per-op difference is the surcharge.
  {
    const std::int64_t d = 1 << 20;  // 512 MB in sectors
    const std::int64_t base = cap / 2;
    auto measure = [&](IoDirection dir,
                       std::int64_t sectors) -> sim::Task<double> {
      // Unmeasured warm-up probe: park the head at base+d so every timed
      // probe hops exactly distance d (the first hop would otherwise carry
      // whatever distance the previous experiment left behind).
      co_await dev.submit({IoDirection::kRead, base + d, sectors, 0});
      double total_ms = 0.0;
      const int reps = 6;
      for (int p = 0; p < reps; ++p) {
        const std::int64_t lbn = (p % 2 == 0) ? base : base + d;
        const sim::SimTime t0 = sim.now();
        co_await dev.submit({dir, lbn, sectors, 0});
        total_ms += (sim.now() - t0).to_millis();
      }
      co_return total_ms / reps;
    };
    const double rd_small =
        co_await measure(IoDirection::kRead, kProbeSectors);
    const double wr_small =
        co_await measure(IoDirection::kWrite, kProbeSectors);
    const double rd_large = co_await measure(IoDirection::kRead, 128);
    const double wr_large = co_await measure(IoDirection::kWrite, 128);
    out.write_small_ms = std::max(0.0, wr_small - rd_small);
    out.write_large_ms = std::max(0.0, wr_large - rd_large);
  }

  done = true;
}

}  // namespace

SeekProfile profile_device(sim::Simulator& sim, BlockDevice& dev) {
  ProfileResult result;
  bool done = false;
  auto task = run_probes(sim, dev, result, done);
  task.start();
  sim.run_while_pending([&] { return done; });
  assert(done && "profiling simulation stalled");

  // The measured per-probe time at distance d is seek(d) + rotation +
  // transfer + overhead.  Subtract the transfer/overhead floor estimated
  // from the near-hop probe so the profile isolates the distance-dependent
  // part plus rotation (exactly the D_to_T + R sum Equation (1) needs; we
  // store rotation separately using the near-hop measurement).
  SeekProfile::Sample floor{0, result.near_ms};
  std::vector<SeekProfile::Sample> net;
  net.reserve(result.samples.size());
  for (const auto& s : result.samples) {
    net.push_back({s.distance, std::max(0.0, s.ms - floor.ms)});
  }
  SeekProfile profile(std::move(net));
  profile.set_rotation(sim::SimTime::from_seconds(result.near_ms / 1e3));
  if (result.stream_ms > 0) {
    profile.set_peak_bandwidth(static_cast<double>(kStreamBytes) /
                               (result.stream_ms / 1e3));
  }
  if (result.stream_write_ms > 0) {
    profile.set_peak_write_bandwidth(static_cast<double>(kStreamBytes) /
                                     (result.stream_write_ms / 1e3));
  }
  profile.set_write_surcharge(result.write_small_ms, result.write_large_ms);
  return profile;
}

}  // namespace ibridge::storage
