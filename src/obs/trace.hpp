// Span-based request tracing for the iBridge simulator.
//
// The paper's central observation is that a synchronous parallel request
// completes only when its *slowest* sub-request does (the striping
// magnification effect, Fig. 3).  A TraceSession records where each request
// spent its simulated time as a tree of spans — client setup, sub-request
// fan-out, network transfer, server queueing, cache/disk service, background
// staging and write-back — linked by a RequestId threaded from pvfs::Client
// down through core::IBridgeCache.
//
// Determinism and cost:
//   * Timestamps are sim::SimTime only; ids are assigned in event order, so
//     a traced run is exactly as deterministic as an untraced one.
//   * Every instrumentation point is guarded by a null-session-pointer test
//     (the CacheObserver pattern): with tracing off, the per-request cost is
//     a handful of predictable branches and the simulated timeline is
//     byte-identical.
//
// Memory: every span is appended and kept; ids index `spans()` directly.
// A run costs about 240 B per span, args and export included: ibridge-trace
// at 1024 requests per rank records 662,169 spans and peaks at 159 MB RSS.
//
// Tracks: each span lives on a track — a (process, thread) name pair that
// maps onto the pid/tid grid of the Chrome trace-event format (see
// obs/export.hpp).  Spans on one track may overlap (concurrent sub-requests,
// multi-channel SSD dispatches); the exporter assigns overlapping span trees
// to separate lanes so Perfetto renders every slice.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace ibridge::sim {
class Simulator;
}

namespace ibridge::obs {

/// Identifies one span within a session.  0 is "no span".
using SpanId = std::uint64_t;
/// Links every span of one client request.  0 is "no request".
using RequestId = std::uint64_t;
/// Index into the session's track table.  -1 is "no track".
using TrackId = int;
inline constexpr TrackId kNoTrack = -1;

/// A key/value annotation on a span.  Keys are static string literals;
/// values are either integers or owned strings.
struct SpanArg {
  const char* key = "";
  std::int64_t ival = 0;
  std::string sval;
  bool is_int = true;
};

/// One recorded span.  `name`/`category` must be string literals (they are
/// stored unowned; every call site passes constants).
struct SpanRecord {
  SpanId id = 0;
  SpanId parent = 0;       ///< enclosing span (same request), 0 for roots
  RequestId request = 0;   ///< owning client request, 0 for background work
  TrackId track = kNoTrack;
  const char* name = "";
  const char* category = "";
  sim::SimTime start;
  sim::SimTime finish;
  bool open = true;        ///< end() not called yet
  std::vector<SpanArg> args;
};

/// A (process, thread) display location for spans.
struct Track {
  std::string process;
  std::string thread;
};

/// One sample of a named time-series counter (Chrome "C" event).
struct CounterSample {
  std::string name;
  sim::SimTime when;
  double value = 0.0;
};

/// Collects spans and counter samples for one simulation run.
///
/// Components hold a `TraceSession*` that is null by default; all recording
/// goes through that pointer, so an untraced run never touches this class.
class TraceSession {
 public:
  explicit TraceSession(sim::Simulator& sim) : sim_(sim) {}
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  /// Allocate the id that links all spans of one client request.
  RequestId new_request() { return ++last_request_; }

  /// Intern a track; repeated calls with the same names return the same id.
  TrackId track(const std::string& process, const std::string& thread);

  /// Open a span starting now.  `name` and `cat` must be string literals.
  SpanId begin(TrackId track, const char* name, const char* cat,
               RequestId request = 0, SpanId parent = 0);

  /// Open a span nested in `parent` (same track and request).
  SpanId child(SpanId parent, const char* name, const char* cat);

  /// Close a span at the current simulated time.  Safe to call with 0.
  void end(SpanId id);

  /// Record an already-finished span (device dispatches know their service
  /// time up front).
  SpanId complete(TrackId track, const char* name, const char* cat,
                  sim::SimTime start, sim::SimTime duration,
                  RequestId request = 0);

  /// Attach an argument to an open or completed span.
  void arg(SpanId id, const char* key, std::int64_t value);
  void arg(SpanId id, const char* key, std::string value);

  /// Record one time-series counter sample at the current simulated time.
  void counter(const std::string& name, double value);

  /// Every span recorded, in id order (`spans()[id - 1]` is span `id`).
  const std::vector<SpanRecord>& spans() const { return spans_; }
  const std::vector<Track>& tracks() const { return tracks_; }
  const std::vector<CounterSample>& counters() const { return counters_; }
  std::uint64_t requests_traced() const { return last_request_; }

  /// The record for `id`; id must be a span id from this session.
  const SpanRecord& span(SpanId id) const { return spans_[id - 1]; }

 private:
  SpanRecord& mutable_span(SpanId id) { return spans_[id - 1]; }

  sim::Simulator& sim_;
  std::vector<SpanRecord> spans_;  // index = id - 1
  std::vector<Track> tracks_;
  std::map<std::pair<std::string, std::string>, TrackId> track_index_;
  std::vector<CounterSample> counters_;
  RequestId last_request_ = 0;
};

}  // namespace ibridge::obs
