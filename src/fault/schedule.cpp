#include "fault/schedule.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <istream>
#include <ostream>
#include <sstream>

#include "sim/digest.hpp"
#include "sim/rng.hpp"

namespace ibridge::fault {

namespace {

constexpr const char* kMagic = "ibridge-fault-schedule-v1";

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

bool valid_phase(const std::string& phase) {
  const auto& ps = writeback_phases();
  return std::find(ps.begin(), ps.end(), phase) != ps.end();
}

}  // namespace

const std::vector<std::string>& writeback_phases() {
  static const std::vector<std::string> kPhases = {
      "batch.begin", "batch.staged", "batch.write", "batch.clean"};
  return kPhases;
}

void normalize(FaultSchedule& s) {
  std::stable_sort(s.crashes.begin(), s.crashes.end(),
                   [](const CrashSpec& a, const CrashSpec& b) {
                     if (a.at != b.at) return a.at < b.at;
                     return a.server < b.server;
                   });
}

const char* to_string(Scenario s) {
  switch (s) {
    case Scenario::kHealthy: return "healthy";
    case Scenario::kGcInterference: return "gc";
    case Scenario::kCrashRestart: return "crash";
    case Scenario::kMixed: return "mixed";
  }
  return "unknown";
}

FaultSchedule make_scenario(Scenario scenario, int servers,
                            std::uint64_t seed, sim::SimTime horizon) {
  FaultSchedule s;
  s.seed = seed;
  if (scenario == Scenario::kHealthy) return s;
  sim::Rng rng(seed);

  const bool want_gc = scenario == Scenario::kGcInterference ||
                       scenario == Scenario::kMixed;
  const bool want_crash = scenario == Scenario::kCrashRestart ||
                          scenario == Scenario::kMixed;
  if (want_gc) {
    GcSpec gc;
    gc.server = -1;
    gc.churn_bytes = static_cast<std::int64_t>(rng.uniform(64, 256)) << 10;
    gc.pause = sim::SimTime::micros(
        static_cast<std::int64_t>(rng.uniform(200, 2000)));
    s.gc.push_back(gc);

    ReadVarSpec rv;
    rv.server = -1;
    rv.probability = 0.05 + 0.15 * rng.uniform01();
    rv.min_extra = sim::SimTime::micros(20);
    rv.max_extra = sim::SimTime::micros(
        static_cast<std::int64_t>(rng.uniform(100, 500)));
    s.readvar.push_back(rv);
  }
  if (want_crash) {
    CrashSpec crash;
    crash.server = static_cast<int>(
        rng.below(static_cast<std::uint64_t>(servers > 0 ? servers : 1)));
    crash.at =
        horizon / 4 +
        sim::SimTime::nanos(static_cast<std::int64_t>(
            rng.below(static_cast<std::uint64_t>(horizon.ns() / 2 + 1))));
    crash.outage = sim::SimTime::millis(
        static_cast<std::int64_t>(rng.uniform(2, 15)));
    const auto& phases = writeback_phases();
    crash.phase = phases[static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(phases.size())))];
    crash.drain_budget = 128 << 10;
    crash.drain_interval = sim::SimTime::millis(1);
    s.crashes.push_back(crash);
  }
  normalize(s);
  return s;
}

void write_schedule(std::ostream& os, const FaultSchedule& s) {
  os << kMagic << "\n";
  os << "seed " << s.seed << "\n";
  for (const GcSpec& g : s.gc) {
    os << "gc " << g.server << " " << g.churn_bytes << " " << g.pause.ns()
       << "\n";
  }
  for (const ReadVarSpec& r : s.readvar) {
    // %.17g round-trips every double exactly.
    char prob[64];
    std::snprintf(prob, sizeof(prob), "%.17g", r.probability);
    os << "readvar " << r.server << " " << prob << " " << r.min_extra.ns()
       << " " << r.max_extra.ns() << "\n";
  }
  for (const CrashSpec& c : s.crashes) {
    os << "crash " << c.server << " " << c.at.ns() << " " << c.outage.ns()
       << " " << c.phase << " " << c.drain_budget << " "
       << c.drain_interval.ns() << "\n";
  }
}

bool parse_schedule(std::istream& is, FaultSchedule& s, std::string* error) {
  FaultSchedule parsed;
  bool saw_magic = false;
  bool saw_seed = false;
  std::string line;
  int lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    if (!saw_magic) {
      if (line.substr(first) != kMagic) {
        set_error(error, "line " + std::to_string(lineno) +
                             ": missing magic '" + kMagic + "'");
        return false;
      }
      saw_magic = true;
      continue;
    }
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "seed") {
      if (!(ls >> parsed.seed)) {
        set_error(error,
                  "line " + std::to_string(lineno) + ": malformed seed");
        return false;
      }
      saw_seed = true;
    } else if (kind == "gc") {
      GcSpec g;
      std::int64_t pause_ns = 0;
      if (!(ls >> g.server >> g.churn_bytes >> pause_ns) ||
          g.churn_bytes <= 0 || pause_ns < 0) {
        set_error(error,
                  "line " + std::to_string(lineno) + ": malformed gc");
        return false;
      }
      g.pause = sim::SimTime::nanos(pause_ns);
      parsed.gc.push_back(g);
    } else if (kind == "readvar") {
      ReadVarSpec r;
      std::int64_t min_ns = 0, max_ns = 0;
      if (!(ls >> r.server >> r.probability >> min_ns >> max_ns) ||
          r.probability < 0.0 || r.probability > 1.0 || min_ns < 0 ||
          max_ns < min_ns) {
        set_error(error,
                  "line " + std::to_string(lineno) + ": malformed readvar");
        return false;
      }
      r.min_extra = sim::SimTime::nanos(min_ns);
      r.max_extra = sim::SimTime::nanos(max_ns);
      parsed.readvar.push_back(r);
    } else if (kind == "crash") {
      CrashSpec c;
      std::int64_t at_ns = 0, outage_ns = 0, interval_ns = 0;
      if (!(ls >> c.server >> at_ns >> outage_ns >> c.phase >>
            c.drain_budget >> interval_ns) ||
          c.server < 0 || at_ns < 0 || outage_ns < 0 || c.drain_budget <= 0 ||
          interval_ns <= 0 || !valid_phase(c.phase)) {
        set_error(error,
                  "line " + std::to_string(lineno) + ": malformed crash");
        return false;
      }
      c.at = sim::SimTime::nanos(at_ns);
      c.outage = sim::SimTime::nanos(outage_ns);
      c.drain_interval = sim::SimTime::nanos(interval_ns);
      parsed.crashes.push_back(c);
    } else {
      set_error(error, "line " + std::to_string(lineno) +
                           ": unknown record '" + kind + "'");
      return false;
    }
  }
  if (!saw_magic) {
    set_error(error, "empty input (missing magic)");
    return false;
  }
  if (!saw_seed) {
    set_error(error, "missing 'seed' record");
    return false;
  }
  normalize(parsed);
  s = std::move(parsed);
  return true;
}

std::uint64_t schedule_digest(const FaultSchedule& s) {
  FaultSchedule n = s;
  normalize(n);
  sim::Digest d;
  d.update_u64(n.seed);
  d.update_u64(n.gc.size());
  for (const GcSpec& g : n.gc) {
    d.update_i64(g.server);
    d.update_i64(g.churn_bytes);
    d.update_i64(g.pause.ns());
  }
  d.update_u64(n.readvar.size());
  for (const ReadVarSpec& r : n.readvar) {
    d.update_i64(r.server);
    d.update_u64(std::bit_cast<std::uint64_t>(r.probability));
    d.update_i64(r.min_extra.ns());
    d.update_i64(r.max_extra.ns());
  }
  d.update_u64(n.crashes.size());
  for (const CrashSpec& c : n.crashes) {
    d.update_i64(c.server);
    d.update_i64(c.at.ns());
    d.update_i64(c.outage.ns());
    d.update(c.phase);
    d.update_i64(c.drain_budget);
    d.update_i64(c.drain_interval.ns());
  }
  return d.value();
}

}  // namespace ibridge::fault
