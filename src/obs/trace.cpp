#include "obs/trace.hpp"

#include <cassert>
#include <utility>

#include "sim/simulator.hpp"

namespace ibridge::obs {

TrackId TraceSession::track(const std::string& process,
                            const std::string& thread) {
  const auto key = std::make_pair(process, thread);
  const auto it = track_index_.find(key);
  if (it != track_index_.end()) return it->second;
  const TrackId id = static_cast<TrackId>(tracks_.size());
  tracks_.push_back(Track{process, thread});
  track_index_.emplace(key, id);
  return id;
}

SpanId TraceSession::begin(TrackId trk, const char* name, const char* cat,
                           RequestId request, SpanId parent) {
  SpanRecord r;
  r.id = spans_.size() + 1;
  r.parent = parent;
  r.request = request;
  r.track = trk;
  r.name = name;
  r.category = cat;
  r.start = sim_.now();
  spans_.push_back(std::move(r));
  return spans_.size();
}

SpanId TraceSession::child(SpanId parent, const char* name, const char* cat) {
  assert(parent != 0 && "child() needs a live parent span");
  const SpanRecord& p = span(parent);
  return begin(p.track, name, cat, p.request, parent);
}

void TraceSession::end(SpanId id) {
  if (id == 0) return;
  SpanRecord& r = mutable_span(id);
  assert(r.open && "span ended twice");
  r.finish = sim_.now();
  r.open = false;
}

SpanId TraceSession::complete(TrackId trk, const char* name, const char* cat,
                              sim::SimTime start, sim::SimTime duration,
                              RequestId request) {
  const SpanId id = begin(trk, name, cat, request, 0);
  SpanRecord& r = mutable_span(id);
  r.start = start;
  r.finish = start + duration;
  r.open = false;
  return id;
}

void TraceSession::arg(SpanId id, const char* key, std::int64_t value) {
  if (id == 0) return;
  mutable_span(id).args.push_back(SpanArg{key, value, {}, true});
}

void TraceSession::arg(SpanId id, const char* key, std::string value) {
  if (id == 0) return;
  mutable_span(id).args.push_back(SpanArg{key, 0, std::move(value), false});
}

void TraceSession::counter(const std::string& name, double value) {
  counters_.push_back(CounterSample{name, sim_.now(), value});
}

}  // namespace ibridge::obs
