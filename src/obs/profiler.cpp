#include "obs/profiler.hpp"

#include <cstring>
#include <string>

#include "obs/metrics.hpp"

namespace ibridge::obs {

int SimProfiler::category(const char* name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (std::strcmp(names_[i], name) == 0) return static_cast<int>(i);
  }
  names_.push_back(name);
  // Keep already-created lanes in sync so a late interning can never index
  // past a lane's counters.
  for (ProfilerLane& lane : lanes_) {
    lane.event_counts_.push_back(0);
    lane.model_ns_.push_back(0);
    lane.wall_ns_.push_back(0);
  }
  return static_cast<int>(names_.size()) - 1;
}

void SimProfiler::publish(MetricsRegistry& reg) const {
  reg.counter("sim.events") =
      static_cast<std::int64_t>(events_total());
  reg.gauge("sim.queue_depth") = static_cast<double>(queue_depth_last());
  reg.gauge("prof.queue_depth.mean") = queue_depth_mean();
  reg.gauge("prof.queue_depth.max") =
      static_cast<double>(queue_depth_peak());
  for (std::size_t c = 0; c < names_.size(); ++c) {
    const std::string suffix(names_[c]);
    reg.counter("prof.events." + suffix) = static_cast<std::int64_t>(
        events(static_cast<int>(c)));
    reg.gauge("prof.model_ms." + suffix) =
        static_cast<double>(model_ns(static_cast<int>(c))) / 1e6;
  }
}

}  // namespace ibridge::obs
