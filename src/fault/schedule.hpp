// Declarative fault schedules for the scenario engine.
//
// A FaultSchedule is a seeded, declarative description of everything
// unhealthy that should happen to a cluster during a run: SSD garbage
// collection pauses (Zheng & Burns: unsynchronized GC turns individual
// devices in an array into stragglers), per-read latency variability
// (Borge et al.: SSD read latency varies heavily even without failures),
// and data-server crash/restart events that cut the write-back machinery
// mid-batch.  Schedules are plain data with a text round-trip, so the same
// schedule can drive a figure bench, a SimCheck fuzz run, and a repro from
// the command line — and same-seed same-schedule runs stay byte-identical.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.hpp"

namespace ibridge::fault {

/// Garbage-collection pause model for one server's SSD (server -1: all).
/// Every `churn_bytes` of write traffic reaching the device triggers one
/// GC cycle that stalls the device for `pause`; pending dispatches wait the
/// pause out as extra service time (the straggler effect).
struct GcSpec {
  int server = -1;
  std::int64_t churn_bytes = 32 << 20;
  sim::SimTime pause = sim::SimTime::millis(3);
};

/// Per-read latency variability for one server's SSD (server -1: all).
/// Each read dispatch independently suffers an extra uniform
/// [min_extra, max_extra] delay with probability `probability`.
struct ReadVarSpec {
  int server = -1;
  double probability = 0.1;
  sim::SimTime min_extra = sim::SimTime::micros(50);
  sim::SimTime max_extra = sim::SimTime::millis(1);
};

/// One data-server crash/restart.  `at` is relative to engine start; the
/// write-back batch in flight (if any) is cut at phase `phase` (one of
/// writeback_phases()).  After `outage` the server restarts, replays its
/// mapping-table image, and drains the recovered dirty data in degraded
/// mode: `drain_budget` bytes per `drain_interval`, tracked by a
/// dirty-position bitmap until every pre-crash dirty byte is home.
struct CrashSpec {
  int server = 0;
  sim::SimTime at = sim::SimTime::millis(50);
  sim::SimTime outage = sim::SimTime::millis(20);
  std::string phase = "batch.write";
  std::int64_t drain_budget = 256 << 10;
  sim::SimTime drain_interval = sim::SimTime::millis(5);
};

struct FaultSchedule {
  std::uint64_t seed = 1;
  std::vector<GcSpec> gc;
  std::vector<ReadVarSpec> readvar;
  std::vector<CrashSpec> crashes;

  bool empty() const {
    return gc.empty() && readvar.empty() && crashes.empty();
  }
};

/// The write-back phase boundaries a crash can cut, in execution order
/// (see core::WritebackGate).
const std::vector<std::string>& writeback_phases();

/// Canonical order: crashes sorted by (at, server).  Parsing and the
/// engine both normalize, so schedule files are order-insensitive.
void normalize(FaultSchedule& s);

// ------------------------------------------------------- named scenarios ----

/// The bench/fuzz scenario columns ("healthy vs GC-interference vs crashy").
enum class Scenario {
  kHealthy,
  kGcInterference,
  kCrashRestart,
  kMixed,
};

const char* to_string(Scenario s);

/// Deterministically derive a schedule for `scenario` on a cluster of
/// `servers` data servers from `seed`.  `horizon` bounds crash times so the
/// crash lands inside the run.  kHealthy returns an empty schedule.
FaultSchedule make_scenario(Scenario scenario, int servers,
                            std::uint64_t seed, sim::SimTime horizon);

// ------------------------------------------------------ text round-trip ----

/// Line-based text format, magic "ibridge-fault-schedule-v1":
///
///   ibridge-fault-schedule-v1
///   seed <N>
///   gc <server> <churn_bytes> <pause_ns>
///   readvar <server> <probability> <min_ns> <max_ns>
///   crash <server> <at_ns> <outage_ns> <phase> <drain_budget> <interval_ns>
///
/// Blank lines and lines starting with '#' are ignored.
void write_schedule(std::ostream& os, const FaultSchedule& s);

/// Parse (and normalize) a schedule; false on malformed input, with a
/// one-line explanation in *error when provided.
bool parse_schedule(std::istream& is, FaultSchedule& s,
                    std::string* error = nullptr);

/// Order-insensitive digest of a (normalized copy of a) schedule.
std::uint64_t schedule_digest(const FaultSchedule& s);

}  // namespace ibridge::fault
