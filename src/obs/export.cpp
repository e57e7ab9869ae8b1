#include "obs/export.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <span>
#include <string_view>
#include <utility>

namespace ibridge::obs {

namespace {

sim::SimTime span_duration(const SpanRecord& s) {
  return s.open ? sim::SimTime::zero() : s.finish - s.start;
}

std::int64_t int_arg(const SpanRecord& s, const std::string& key,
                     std::int64_t fallback) {
  for (const SpanArg& a : s.args) {
    if (a.is_int && key == a.key) return a.ival;
  }
  return fallback;
}

/// Format a SimTime as microseconds with sub-µs precision (trace ts/dur).
void write_us(std::ostream& os, sim::SimTime t) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(t.ns() / 1000),
                static_cast<long long>(t.ns() % 1000));
  os << buf;
}

void write_double(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  os << buf;
}

void write_json_string(std::ostream& os, const std::string& s) {
  os << '"';
  for (const char c : s) {
    switch (c) {
      case '"': os << "\\\""; break;
      case '\\': os << "\\\\"; break;
      case '\n': os << "\\n"; break;
      case '\t': os << "\\t"; break;
      case '\r': os << "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

/// Assign every span a display lane on its track.  Lane roots (spans whose
/// parent is absent or lives on another track) sweep start-ordered into the
/// lowest free lane; descendants inherit their ancestor's lane.  Returns
/// lane-per-span (indexed id-1) and the lane count per track.
void assign_lanes(const TraceSession& session, std::vector<int>& lane_of,
                  std::vector<int>& lanes_per_track) {
  const auto& spans = session.spans();
  const std::size_t track_count = session.tracks().size();
  lane_of.assign(spans.size(), 0);
  lanes_per_track.assign(track_count, 0);

  std::vector<SpanId> roots;
  for (const SpanRecord& s : spans) {
    if (s.track == kNoTrack) continue;
    if (s.parent == 0 || session.span(s.parent).track != s.track) {
      roots.push_back(s.id);
    }
  }
  std::sort(roots.begin(), roots.end(), [&](SpanId a, SpanId b) {
    const SpanRecord& sa = session.span(a);
    const SpanRecord& sb = session.span(b);
    if (sa.start != sb.start) return sa.start < sb.start;
    return a < b;
  });

  // lane -> finish time of its latest occupant, one vector per track.
  std::vector<std::vector<sim::SimTime>> occupied(track_count);
  for (const SpanId id : roots) {
    const SpanRecord& s = session.span(id);
    auto& lanes = occupied[static_cast<std::size_t>(s.track)];
    const sim::SimTime finish = s.open ? sim::SimTime::max() : s.finish;
    std::size_t lane = 0;
    while (lane < lanes.size() && lanes[lane] > s.start) ++lane;
    if (lane == lanes.size()) {
      lanes.push_back(finish);
    } else {
      lanes[lane] = finish;
    }
    lane_of[id - 1] = static_cast<int>(lane);
  }
  // Spans are created parent-first, so one id-ordered pass resolves every
  // descendant after its ancestors.
  for (const SpanRecord& s : spans) {
    if (s.track == kNoTrack) continue;
    if (s.parent != 0 && session.span(s.parent).track == s.track) {
      lane_of[s.id - 1] = lane_of[s.parent - 1];
    }
  }
  for (std::size_t t = 0; t < occupied.size(); ++t) {
    lanes_per_track[t] = static_cast<int>(occupied[t].size());
  }
}

}  // namespace

std::vector<RequestBreakdown> analyze(const TraceSession& session) {
  const auto& spans = session.spans();

  // Sum of direct children's durations per span, for exclusive time.
  std::vector<sim::SimTime> child_sum(spans.size(), sim::SimTime::zero());
  for (const SpanRecord& s : spans) {
    if (s.parent != 0) child_sum[s.parent - 1] += span_duration(s);
  }

  // Every request-owned span, grouped by request; the stable sort keeps
  // each group in id order.
  std::vector<const SpanRecord*> owned;
  for (const SpanRecord& s : spans) {
    if (s.request != 0) owned.push_back(&s);
  }
  std::stable_sort(owned.begin(), owned.end(),
                   [](const SpanRecord* a, const SpanRecord* b) {
                     return a->request < b->request;
                   });

  std::vector<RequestBreakdown> out;
  for (auto first = owned.begin(); first != owned.end();) {
    const RequestId request = (*first)->request;
    const auto last = std::find_if(first, owned.end(),
                                   [request](const SpanRecord* s) {
                                     return s->request != request;
                                   });
    const auto group = std::span(first, last);
    first = last;
    // The request's root is its first span without a parent.
    const auto root_it = std::find_if(
        group.begin(), group.end(),
        [](const SpanRecord* s) { return s->parent == 0; });
    if (root_it == group.end()) continue;
    const SpanRecord& root = **root_it;
    if (root.open) continue;  // request never completed; no total to report
    RequestBreakdown b;
    b.request = request;
    b.root = root.id;
    b.rank = int_arg(root, "rank", -1);
    b.offset = int_arg(root, "offset", -1);
    b.length = int_arg(root, "length", -1);
    b.total = span_duration(root);
    for (const SpanRecord* s : group) {
      const sim::SimTime dur = span_duration(*s);
      const sim::SimTime kids = child_sum[s->id - 1];
      b.category_exclusive[s->category] +=
          kids < dur ? dur - kids : sim::SimTime::zero();
      if (s->parent == root.id && std::string_view(s->name) == "sub") {
        b.subs.push_back(SubSpan{s->id, int_arg(*s, "server", -1),
                                 int_arg(*s, "fragment", 0) != 0, dur});
      }
    }
    if (!b.subs.empty()) {
      std::vector<sim::SimTime> durs;
      durs.reserve(b.subs.size());
      for (const SubSpan& sub : b.subs) durs.push_back(sub.duration);
      std::sort(durs.begin(), durs.end());
      b.slowest = durs.back();
      b.median = durs[(durs.size() - 1) / 2];
      if (b.subs.size() >= 2 && b.median.ns() > 0) {
        b.magnification = static_cast<double>(b.slowest.ns()) /
                          static_cast<double>(b.median.ns());
      }
      for (const SubSpan& sub : b.subs) {
        if (sub.duration == b.slowest && sub.fragment) {
          b.straggler_is_fragment = true;
        }
      }
    }
    out.push_back(std::move(b));
  }
  return out;
}

void write_chrome_trace(std::ostream& os, const TraceSession& session) {
  std::vector<int> lane_of;
  std::vector<int> lanes_per_track;
  assign_lanes(session, lane_of, lanes_per_track);

  const auto& tracks = session.tracks();

  // Distinct process names -> pid, in track order.
  std::map<std::string, int> pid_of;
  std::vector<int> track_pid(tracks.size(), 0);
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    auto [it, inserted] =
        pid_of.emplace(tracks[t].process, static_cast<int>(pid_of.size()) + 1);
    (void)inserted;
    track_pid[t] = it->second;
  }

  // (track, lane) -> tid, enumerated track-major so related lanes adjoin.
  std::map<std::pair<std::size_t, int>, int> tid_of;
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    for (int lane = 0; lane < lanes_per_track[t]; ++lane) {
      tid_of.emplace(std::make_pair(t, lane),
                     static_cast<int>(tid_of.size()) + 1);
    }
  }

  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ",";
    first = false;
    os << "\n";
  };

  for (const auto& [process, pid] : pid_of) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
       << ",\"tid\":0,\"args\":{\"name\":";
    write_json_string(os, process);
    os << "}}";
  }
  for (const auto& [key, tid] : tid_of) {
    const Track& trk = tracks[key.first];
    std::string name = trk.thread;
    if (key.second > 0) name += " #" + std::to_string(key.second + 1);
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":"
       << track_pid[key.first] << ",\"tid\":" << tid << ",\"args\":{\"name\":";
    write_json_string(os, name);
    os << "}}";
    sep();
    os << "{\"ph\":\"M\",\"name\":\"thread_sort_index\",\"pid\":"
       << track_pid[key.first] << ",\"tid\":" << tid
       << ",\"args\":{\"sort_index\":" << tid << "}}";
  }

  for (const SpanRecord& s : session.spans()) {
    if (s.track == kNoTrack) continue;
    const auto t = static_cast<std::size_t>(s.track);
    const int tid = tid_of.at(std::make_pair(t, lane_of[s.id - 1]));
    sep();
    os << "{\"ph\":\"X\",\"name\":";
    write_json_string(os, s.name);
    os << ",\"cat\":";
    write_json_string(os, s.category);
    os << ",\"pid\":" << track_pid[t] << ",\"tid\":" << tid << ",\"ts\":";
    write_us(os, s.start);
    os << ",\"dur\":";
    write_us(os, span_duration(s));
    os << ",\"args\":{\"span\":" << s.id;
    if (s.request != 0) os << ",\"request\":" << s.request;
    for (const SpanArg& a : s.args) {
      os << ",";
      write_json_string(os, a.key);
      os << ":";
      if (a.is_int) {
        os << a.ival;
      } else {
        write_json_string(os, a.sval);
      }
    }
    os << "}}";
  }

  // Counter samples render as per-name counter tracks on a synthetic pid.
  const int counter_pid = static_cast<int>(pid_of.size()) + 1;
  if (!session.counters().empty()) {
    sep();
    os << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << counter_pid
       << ",\"tid\":0,\"args\":{\"name\":\"metrics\"}}";
  }
  for (const CounterSample& c : session.counters()) {
    sep();
    os << "{\"ph\":\"C\",\"name\":";
    write_json_string(os, c.name);
    os << ",\"pid\":" << counter_pid << ",\"tid\":0,\"ts\":";
    write_us(os, c.when);
    os << ",\"args\":{\"value\":";
    write_double(os, c.value);
    os << "}}";
  }

  os << "\n]}\n";
}

void write_straggler_report(std::ostream& os, const TraceSession& session,
                            std::size_t top_n) {
  std::vector<RequestBreakdown> reqs = analyze(session);

  char buf[256];
  os << "=== straggler report: " << reqs.size() << " traced request(s) ===\n";
  if (reqs.empty()) return;

  std::vector<const RequestBreakdown*> by_total;
  by_total.reserve(reqs.size());
  for (const RequestBreakdown& b : reqs) by_total.push_back(&b);
  std::sort(by_total.begin(), by_total.end(),
            [](const RequestBreakdown* a, const RequestBreakdown* b) {
              if (a->total != b->total) return a->total > b->total;
              return a->request < b->request;
            });
  if (by_total.size() > top_n) by_total.resize(top_n);

  os << "\ntop " << by_total.size() << " slowest requests:\n";
  std::snprintf(buf, sizeof buf, "%8s %5s %12s %10s %10s %5s %8s %9s %s\n",
                "request", "rank", "offset", "length", "total_ms", "subs",
                "slow_ms", "magnif", "straggler");
  os << buf;
  for (const RequestBreakdown* b : by_total) {
    const char* kind = b->subs.empty()
                           ? "-"
                           : (b->straggler_is_fragment ? "fragment" : "stripe");
    std::snprintf(buf, sizeof buf,
                  "%8llu %5lld %12lld %10lld %10.3f %5zu %8.3f %8.2fx %s\n",
                  static_cast<unsigned long long>(b->request),
                  static_cast<long long>(b->rank),
                  static_cast<long long>(b->offset),
                  static_cast<long long>(b->length), b->total.to_millis(),
                  b->subs.size(), b->slowest.to_millis(), b->magnification,
                  kind);
    os << buf;
  }

  // Per-layer exclusive time, aggregated over every traced request.
  std::map<std::string, sim::SimTime> layer;
  sim::SimTime layer_total = sim::SimTime::zero();
  double mag_sum = 0.0, mag_max = 0.0;
  std::size_t parallel_reqs = 0, fragment_straggled = 0;
  for (const RequestBreakdown& b : reqs) {
    for (const auto& [cat, t] : b.category_exclusive) {
      layer[cat] += t;
      layer_total += t;
    }
    if (b.subs.size() >= 2) {
      ++parallel_reqs;
      mag_sum += b.magnification;
      mag_max = std::max(mag_max, b.magnification);
      if (b.straggler_is_fragment) ++fragment_straggled;
    }
  }
  os << "\nper-layer exclusive time (all requests):\n";
  for (const auto& [cat, t] : layer) {
    const double share = layer_total.ns() > 0
                             ? 100.0 * static_cast<double>(t.ns()) /
                                   static_cast<double>(layer_total.ns())
                             : 0.0;
    std::snprintf(buf, sizeof buf, "%16s %12.3f ms %6.1f%%\n", cat.c_str(),
                  t.to_millis(), share);
    os << buf;
  }

  if (parallel_reqs > 0) {
    std::snprintf(buf, sizeof buf,
                  "\nmagnification (slowest/median sibling sub-request): "
                  "mean %.2fx, max %.2fx over %zu request(s)\n",
                  mag_sum / static_cast<double>(parallel_reqs), mag_max,
                  parallel_reqs);
    os << buf;
    std::snprintf(buf, sizeof buf,
                  "fragment sub-request was the straggler in %zu/%zu "
                  "(%.1f%%) of parallel requests\n",
                  fragment_straggled, parallel_reqs,
                  100.0 * static_cast<double>(fragment_straggled) /
                      static_cast<double>(parallel_reqs));
    os << buf;
  }
}

}  // namespace ibridge::obs
