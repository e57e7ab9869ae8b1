// Observability layer: span recording, the metrics registry, the exporters,
// and the zero-cost-when-disabled guarantee at cluster level.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "mpiio/mpi.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "obs/trace.hpp"
#include "sim/simulator.hpp"
#include "workloads/mpi_io_test.hpp"

namespace ibridge::obs {
namespace {

sim::SimTime ms(std::int64_t n) { return sim::SimTime::millis(n); }

TEST(TraceSession, TracksAreInterned) {
  sim::Simulator sim;
  TraceSession s(sim);
  const TrackId a = s.track("srv0", "io");
  const TrackId b = s.track("srv0", "cache-bg");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, s.track("srv0", "io"));
  ASSERT_EQ(s.tracks().size(), 2u);
  EXPECT_EQ(s.tracks()[static_cast<std::size_t>(a)].thread, "io");
}

TEST(TraceSession, SpanNestingAndTimestamps) {
  sim::Simulator sim;
  TraceSession s(sim);
  const TrackId t = s.track("client", "rank0");
  const RequestId rid = s.new_request();
  SpanId root = 0, child = 0;
  sim.schedule(ms(0), [&] { root = s.begin(t, "request", "client", rid); });
  sim.schedule(ms(1), [&] { child = s.child(root, "sub", "client"); });
  sim.schedule(ms(3), [&] { s.end(child); });
  sim.schedule(ms(5), [&] { s.end(root); });
  sim.run();

  const SpanRecord& r = s.span(root);
  const SpanRecord& c = s.span(child);
  EXPECT_EQ(r.parent, 0u);
  EXPECT_EQ(c.parent, root);
  EXPECT_EQ(c.request, rid) << "children inherit the request id";
  EXPECT_EQ(c.track, t) << "children inherit the track";
  EXPECT_FALSE(r.open);
  EXPECT_EQ(r.start, ms(0));
  EXPECT_EQ(r.finish, ms(5));
  EXPECT_EQ(c.start, ms(1));
  EXPECT_EQ(c.finish, ms(3));
}

TEST(TraceSession, EndAndArgWithZeroAreNoops) {
  sim::Simulator sim;
  TraceSession s(sim);
  s.end(0);
  s.arg(0, "k", std::int64_t{1});
  s.arg(0, "k", std::string("v"));
  EXPECT_TRUE(s.spans().empty());
}

TEST(TraceSession, CompleteSpansAndCounters) {
  sim::Simulator sim;
  TraceSession s(sim);
  const TrackId t = s.track("srv0", "disk");
  const SpanId id = s.complete(t, "io.read", "device", ms(2), ms(7));
  s.arg(id, "sectors", std::int64_t{128});
  const SpanRecord& r = s.span(id);
  EXPECT_FALSE(r.open);
  EXPECT_EQ(r.start, ms(2));
  EXPECT_EQ(r.finish, ms(9));
  ASSERT_EQ(r.args.size(), 1u);
  EXPECT_EQ(r.args[0].ival, 128);

  s.counter("srv0.inflight", 3.0);
  ASSERT_EQ(s.counters().size(), 1u);
  EXPECT_EQ(s.counters()[0].name, "srv0.inflight");
  EXPECT_EQ(s.counters()[0].value, 3.0);
}

// Build one synthetic request: a root with three sub-requests of 2/2/10 ms;
// the slowest is a tagged fragment on server 2.
void record_request(TraceSession& s, sim::Simulator& sim) {
  const TrackId t = s.track("client", "rank0");
  const RequestId rid = s.new_request();
  SpanId root = 0;
  sim.schedule(ms(0), [&, rid] {
    root = s.begin(t, "request", "client", rid);
    s.arg(root, "rank", std::int64_t{0});
    s.arg(root, "offset", std::int64_t{0});
    s.arg(root, "length", std::int64_t{131072 + 1024});
  });
  sim.schedule(ms(1), [&] {
    for (int i = 0; i < 3; ++i) {
      const SpanId sub = s.child(root, "sub", "client");
      s.arg(sub, "server", std::int64_t{i});
      if (i == 2) s.arg(sub, "fragment", std::int64_t{1});
      sim.schedule(i == 2 ? ms(10) : ms(2), [&s, sub] { s.end(sub); });
    }
  });
  sim.schedule(ms(12), [&] { s.end(root); });
  sim.run();
}

TEST(Analyze, MagnificationAndFragmentStraggler) {
  sim::Simulator sim;
  TraceSession s(sim);
  record_request(s, sim);

  const auto reqs = analyze(s);
  ASSERT_EQ(reqs.size(), 1u);
  const RequestBreakdown& b = reqs[0];
  EXPECT_EQ(b.total, ms(12));
  ASSERT_EQ(b.subs.size(), 3u);
  EXPECT_EQ(b.slowest, ms(10));
  EXPECT_EQ(b.median, ms(2));
  EXPECT_DOUBLE_EQ(b.magnification, 5.0);
  EXPECT_TRUE(b.straggler_is_fragment);
  EXPECT_EQ(b.length, 131072 + 1024);
  // Exclusive time: the subs sum to 14 ms, which exceeds the root's 12 ms
  // (they overlap), so the root contributes zero exclusive time.
  EXPECT_EQ(b.category_exclusive.at("client"), ms(14));
}

TEST(Analyze, SingleSubRequestHasUnitMagnification) {
  sim::Simulator sim;
  TraceSession s(sim);
  const TrackId t = s.track("client", "rank0");
  SpanId root = 0;
  sim.schedule(ms(0),
               [&] { root = s.begin(t, "request", "client", s.new_request()); });
  sim.schedule(ms(1), [&] {
    const SpanId sub = s.child(root, "sub", "client");
    sim.schedule(ms(4), [&s, sub] { s.end(sub); });
  });
  sim.schedule(ms(6), [&] { s.end(root); });
  sim.run();

  const auto reqs = analyze(s);
  ASSERT_EQ(reqs.size(), 1u);
  EXPECT_DOUBLE_EQ(reqs[0].magnification, 1.0);
  EXPECT_FALSE(reqs[0].straggler_is_fragment);
}

TEST(Exporters, ChromeTraceShapeAndEscaping) {
  sim::Simulator sim;
  TraceSession s(sim);
  record_request(s, sim);
  s.counter("srv0.inflight", 1.0);

  std::ostringstream os;
  write_chrome_trace(os, s);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"M\""), std::string::npos) << "metadata events";
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos) << "complete events";
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos) << "counter events";
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"fragment\":1"), std::string::npos);
  // The 10 ms sub span: ts/dur are microseconds.
  EXPECT_NE(json.find("\"dur\":10000.000"), std::string::npos);
}

TEST(Exporters, StragglerReportNamesTheFragment) {
  sim::Simulator sim;
  TraceSession s(sim);
  record_request(s, sim);

  std::ostringstream os;
  write_straggler_report(os, s, 5);
  const std::string report = os.str();
  EXPECT_NE(report.find("magnification"), std::string::npos);
  EXPECT_NE(report.find("fragment"), std::string::npos);
  EXPECT_NE(report.find("5.00x"), std::string::npos);
}

TEST(MetricsRegistry, FlattenIsSortedAndExpandsHistograms) {
  MetricsRegistry reg;
  reg.counter("cache.read_hits") = 7;
  reg.gauge("srv0.disk.busy_ms") = 12.5;
  reg.histogram("cache.ret_estimate_ms").add(1.0);
  reg.histogram("cache.ret_estimate_ms").add(3.0);
  EXPECT_TRUE(reg.has("cache.read_hits"));
  EXPECT_FALSE(reg.has("cache.read_misses"));

  const auto rows = reg.flatten();
  ASSERT_EQ(rows.size(), 8u);  // 1 counter + 1 gauge + 6 histogram rows
  for (std::size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].first, rows[i].first) << "rows sorted by name";
  }
  EXPECT_EQ(rows[0].first, "cache.read_hits");
  EXPECT_EQ(rows[0].second, 7.0);
  EXPECT_EQ(rows[1].first, "cache.ret_estimate_ms.count");
  EXPECT_EQ(rows[1].second, 2.0);
  EXPECT_EQ(rows[3].first, "cache.ret_estimate_ms.mean");
  EXPECT_DOUBLE_EQ(rows[3].second, 2.0);

  std::ostringstream os;
  reg.write_csv(os);
  EXPECT_NE(os.str().find("name,value\n"), std::string::npos);
  EXPECT_NE(os.str().find("srv0.disk.busy_ms,12.5"), std::string::npos);
}

TEST(TimeSeries, ColumnsGrowByUnion) {
  TimeSeries ts;
  MetricsRegistry reg;
  reg.counter("a") = 1;
  ts.sample(ms(10), reg);
  reg.counter("b") = 2;
  ts.sample(ms(20), reg);

  EXPECT_EQ(ts.rows(), 2u);
  ASSERT_EQ(ts.columns().size(), 2u);
  std::ostringstream os;
  ts.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time_ms,a,b\n"), std::string::npos);
  EXPECT_NE(csv.find("10,1,0\n"), std::string::npos)
      << "cell for a column that did not exist yet reads as 0";
  EXPECT_NE(csv.find("20,1,2\n"), std::string::npos);
}

TEST(TimeSeries, LateGaugeColumnsBackfillEmptyNotZero) {
  TimeSeries ts;
  MetricsRegistry reg;
  reg.counter("ops") = 1;
  ts.sample(ms(10), reg);
  reg.gauge("depth") = 3.5;
  reg.counter("ops") = 4;
  ts.sample(ms(20), reg);

  ASSERT_EQ(ts.columns().size(), 2u);
  ASSERT_EQ(ts.column_kinds().size(), 2u);
  std::ostringstream os;
  ts.write_csv(os);
  const std::string csv = os.str();
  EXPECT_NE(csv.find("time_ms,ops,depth\n"), std::string::npos);
  EXPECT_NE(csv.find("10,1,\n"), std::string::npos)
      << "a gauge that did not exist yet is unknown, not zero";
  EXPECT_NE(csv.find("20,4,3.5\n"), std::string::npos);
}

// ---- sim-core profiler (unit level) ----

TEST(SimProfiler, GapAttributionAndFirstMarkWins) {
  sim::Simulator sim;
  SimProfiler prof;
  const int disk = prof.category("disk");
  const int cache = prof.category("cache");
  EXPECT_EQ(prof.category("disk"), disk) << "re-interning returns the id";
  prof.set_server_count(2);
  prof.set_lane_count(1);
  sim.set_step_hook(prof.lane_hook(0));
  sim.schedule(ms(2), [&] {
    prof.mark(disk);
    prof.mark(cache);  // second mark per event is ignored
    prof.heat(0, 4096);
    prof.heat(9, 1);  // out of range: silently dropped
  });
  sim.schedule(ms(5), [&] {});  // unmarked -> "other"
  sim.schedule(ms(6), [&] { prof.mark(cache); });
  sim.run();
  sim.set_step_hook(nullptr);

  EXPECT_EQ(prof.events_total(), 3u);
  EXPECT_EQ(prof.events(disk), 1u);
  EXPECT_EQ(prof.events(cache), 1u);
  EXPECT_EQ(prof.events(SimProfiler::kOther), 1u);
  // Gap attribution: the marked event absorbs the simulated-clock advance
  // since the previous event; the categories partition the timeline.
  EXPECT_EQ(prof.model_ns(disk), ms(2).ns());
  EXPECT_EQ(prof.model_ns(SimProfiler::kOther), ms(3).ns());
  EXPECT_EQ(prof.model_ns(cache), ms(1).ns());
  EXPECT_EQ(prof.heat_ops(0), 1u);
  EXPECT_EQ(prof.heat_bytes(0), 4096);
  EXPECT_EQ(prof.heat_ops(1), 0u);
  EXPECT_FALSE(prof.wall_timing_enabled());

  MetricsRegistry reg;
  prof.publish(reg);
  EXPECT_EQ(reg.counter("sim.events"), 3);
  EXPECT_DOUBLE_EQ(reg.gauge("prof.model_ms.disk"), 2.0);
  EXPECT_DOUBLE_EQ(reg.gauge("prof.model_ms.other"), 3.0);
  EXPECT_EQ(reg.counter("prof.events.cache"), 1);
  EXPECT_EQ(reg.counter("srv0.prof.heat_ops"), 1);
  EXPECT_EQ(reg.counter("srv0.prof.heat_bytes"), 4096);
  EXPECT_TRUE(reg.has("prof.queue_depth.mean"));
}

// ---- cluster-level behavior ----

struct TracedRun {
  sim::SimTime flushed;
  sim::Bytes served = sim::Bytes::zero();
};

sim::Task<> reader(mpiio::MpiContext ctx, mpiio::MpiFile file,
                   std::int64_t iters) {
  for (std::int64_t k = 0; k < iters; ++k) {
    const std::int64_t off = (k * ctx.size() + ctx.rank()) * (8LL << 16);
    co_await file.read_at(ctx.rank(), off, 65 * 1024);
    co_await ctx.barrier();
  }
}

/// Four ranks each read `iters` 65 KB requests on `c`, then drain; returns
/// the flush time.
sim::SimTime read_unaligned(cluster::Cluster& c, std::int64_t iters) {
  auto fh = c.create_file("data", 2LL << 30);
  mpiio::MpiFile file(c.client(), fh);
  mpiio::MpiEnvironment group(c.sim(), c.client(), 4);
  group.launch(
      [&](mpiio::MpiContext ctx) { return reader(ctx, file, iters); });
  c.sim().run_while_pending([&] { return group.finished(); });
  return c.drain();
}

TracedRun run_unaligned(TraceSession* session) {
  cluster::Cluster c(cluster::ClusterConfig::with_ibridge());
  if (session != nullptr) c.set_trace(session);
  TracedRun r;
  r.flushed = read_unaligned(c, 3);
  r.served = c.total_bytes_served();
  return r;
}

TEST(ClusterTracing, DisabledSessionChangesNothing) {
  sim::Simulator scratch;
  TraceSession session(scratch);
  // set_trace(&session) then set_trace(nullptr) must leave the cluster
  // exactly as never-traced; the traced timeline must equal the untraced
  // one (instrumentation never perturbs the simulation).
  const TracedRun off = run_unaligned(nullptr);
  const TracedRun on = run_unaligned(&session);
  EXPECT_EQ(off.flushed, on.flushed)
      << "tracing must not perturb the simulated timeline";
  EXPECT_EQ(off.served, on.served);
  EXPECT_FALSE(session.spans().empty());
}

TEST(ClusterTracing, SpanTreeCoversEveryLayer) {
  cluster::Cluster c(cluster::ClusterConfig::with_ibridge());
  TraceSession session(c.sim());
  c.set_trace(&session);
  read_unaligned(c, 2);

  int requests = 0, subs = 0, serves = 0, devices = 0;
  for (const SpanRecord& sp : session.spans()) {
    const std::string name = sp.name;
    EXPECT_FALSE(sp.open) << "span " << name << " never ended";
    if (name == "request") {
      ++requests;
      EXPECT_EQ(sp.parent, 0u);
      EXPECT_NE(sp.request, 0u);
    } else if (name == "sub") {
      ++subs;
      EXPECT_EQ(std::string(session.span(sp.parent).name), "request");
    } else if (name == "server.serve") {
      ++serves;
      EXPECT_EQ(std::string(session.span(sp.parent).name), "sub")
          << "server spans nest under the client's sub-request span";
      EXPECT_NE(sp.request, 0u);
    } else if (name == "io.read" || name == "io.write") {
      ++devices;
    }
  }
  EXPECT_EQ(requests, 4 * 2);
  // 65 KB requests decompose into a 64 KB unit plus a 1 KB fragment.
  EXPECT_EQ(subs, 2 * requests);
  EXPECT_EQ(serves, subs);
  EXPECT_GT(devices, 0) << "device dispatches must be traced";

  // The analyzer sees the same requests end-to-end.
  const auto reqs = analyze(session);
  EXPECT_EQ(reqs.size(), static_cast<std::size_t>(requests));
  for (const auto& b : reqs) {
    EXPECT_EQ(b.subs.size(), 2u);
    EXPECT_GT(b.total, sim::SimTime::zero());
  }
}

TEST(ClusterMetrics, ReturnEstimatesMergeEveryServer) {
  // cache.ret_estimate_ms is the one distribution a run publishes: the
  // registry's histogram must hold exactly the Eq. (2)/(3) estimates every
  // server's cache recorded.
  cluster::Cluster c(cluster::ClusterConfig::with_ibridge());
  workloads::MpiIoTestConfig cfg;
  cfg.nprocs = 8;
  cfg.request_size = 65 * 1024;  // unaligned: every request leaves a fragment
  cfg.file_bytes = 64LL << 20;
  cfg.access_bytes = 4LL << 20;
  cfg.write = true;
  workloads::run_mpi_io_test(c, cfg);

  std::uint64_t count = 0;
  double max = 0.0;
  int servers_with_samples = 0;
  for (int i = 0; i < c.server_count(); ++i) {
    const stats::Histogram& h = c.server(i).cache()->stats().ret_estimate_ms;
    if (h.count() == 0) continue;
    max = servers_with_samples == 0 ? h.max() : std::max(max, h.max());
    count += h.count();
    ++servers_with_samples;
  }
  EXPECT_EQ(servers_with_samples, c.server_count())
      << "the workload must reach every server";

  MetricsRegistry reg;
  c.collect_metrics(reg);
  std::map<std::string, double> rows;
  for (const auto& [name, value] : reg.flatten()) rows[name] = value;
  EXPECT_EQ(rows.at("cache.ret_estimate_ms.count"),
            static_cast<double>(count));
  EXPECT_EQ(rows.at("cache.ret_estimate_ms.max"), max);
}

/// The per-request breakdowns analyze() must produce, computed the direct
/// way: for every request, scan every span.
std::vector<RequestBreakdown> analyze_naive(const TraceSession& s) {
  const auto duration = [](const SpanRecord& r) {
    return r.open ? sim::SimTime::zero() : r.finish - r.start;
  };
  const auto int_arg = [](const SpanRecord& r, const std::string& key,
                          std::int64_t fallback) {
    for (const SpanArg& a : r.args) {
      if (a.is_int && key == a.key) return a.ival;
    }
    return fallback;
  };
  std::vector<RequestBreakdown> out;
  for (RequestId req = 1; req <= s.requests_traced(); ++req) {
    const SpanRecord* root = nullptr;
    for (const SpanRecord& r : s.spans()) {
      if (r.request == req && r.parent == 0) {
        root = &r;
        break;
      }
    }
    if (root == nullptr || root->open) continue;
    RequestBreakdown b;
    b.request = req;
    b.root = root->id;
    b.rank = int_arg(*root, "rank", -1);
    b.offset = int_arg(*root, "offset", -1);
    b.length = int_arg(*root, "length", -1);
    b.total = duration(*root);
    for (const SpanRecord& r : s.spans()) {
      if (r.request != req) continue;
      sim::SimTime kids = sim::SimTime::zero();
      for (const SpanRecord& c : s.spans()) {
        if (c.parent == r.id) kids += duration(c);
      }
      const sim::SimTime own = duration(r);
      b.category_exclusive[r.category] +=
          kids < own ? own - kids : sim::SimTime::zero();
      if (r.parent == root->id && std::string(r.name) == "sub") {
        b.subs.push_back(SubSpan{r.id, int_arg(r, "server", -1),
                                 int_arg(r, "fragment", 0) != 0, own});
      }
    }
    std::vector<sim::SimTime> durs;
    for (const SubSpan& sub : b.subs) durs.push_back(sub.duration);
    std::sort(durs.begin(), durs.end());
    if (!durs.empty()) {
      b.slowest = durs.back();
      b.median = durs[(durs.size() - 1) / 2];
    }
    if (durs.size() >= 2 && b.median.ns() > 0) {
      b.magnification = static_cast<double>(b.slowest.ns()) /
                        static_cast<double>(b.median.ns());
    }
    for (const SubSpan& sub : b.subs) {
      if (sub.fragment && sub.duration == b.slowest) {
        b.straggler_is_fragment = true;
      }
    }
    out.push_back(std::move(b));
  }
  return out;
}

TEST(Analyze, MatchesNaivePerRequestScanOnInterleavedRun) {
  // Four ranks run concurrently, so the spans of different requests
  // interleave in the store; every field must match the direct scan.
  cluster::Cluster c(cluster::ClusterConfig::with_ibridge());
  TraceSession session(c.sim());
  c.set_trace(&session);
  read_unaligned(c, 3);

  bool interleaved = false;
  for (std::size_t i = 1; i < session.spans().size(); ++i) {
    const RequestId prev = session.spans()[i - 1].request;
    const RequestId cur = session.spans()[i].request;
    if (prev != 0 && cur != 0 && cur < prev) interleaved = true;
  }
  EXPECT_TRUE(interleaved) << "the run must interleave request spans";

  const auto got = analyze(session);
  const auto want = analyze_naive(session);
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.size(), 12u);  // 4 ranks x 3 requests
  for (std::size_t i = 0; i < got.size(); ++i) {
    const RequestBreakdown& g = got[i];
    const RequestBreakdown& w = want[i];
    SCOPED_TRACE("request " + std::to_string(w.request));
    EXPECT_EQ(g.request, w.request);
    EXPECT_EQ(g.root, w.root);
    EXPECT_EQ(g.rank, w.rank);
    EXPECT_EQ(g.offset, w.offset);
    EXPECT_EQ(g.length, w.length);
    EXPECT_EQ(g.total, w.total);
    ASSERT_EQ(g.subs.size(), w.subs.size());
    for (std::size_t k = 0; k < g.subs.size(); ++k) {
      EXPECT_EQ(g.subs[k].id, w.subs[k].id);
      EXPECT_EQ(g.subs[k].server, w.subs[k].server);
      EXPECT_EQ(g.subs[k].fragment, w.subs[k].fragment);
      EXPECT_EQ(g.subs[k].duration, w.subs[k].duration);
    }
    EXPECT_EQ(g.slowest, w.slowest);
    EXPECT_EQ(g.median, w.median);
    EXPECT_EQ(g.magnification, w.magnification);
    EXPECT_EQ(g.straggler_is_fragment, w.straggler_is_fragment);
    EXPECT_EQ(g.category_exclusive, w.category_exclusive);
  }
}

/// The exporters' output for one fully traced unaligned run.
struct TraceOutput {
  std::string chrome_json;
  std::string report;
};

TraceOutput traced_unaligned() {
  cluster::Cluster c(cluster::ClusterConfig::with_ibridge());
  TraceSession session(c.sim());
  c.set_trace(&session);
  read_unaligned(c, 3);
  TraceOutput out;
  std::ostringstream json;
  write_chrome_trace(json, session);
  out.chrome_json = json.str();
  std::ostringstream report;
  write_straggler_report(report, session, 5);
  out.report = report.str();
  return out;
}

TEST(ClusterTracing, FullTraceExportsAreDeterministic) {
  const TraceOutput a = traced_unaligned();
  const TraceOutput b = traced_unaligned();
  EXPECT_EQ(a.chrome_json, b.chrome_json);
  EXPECT_EQ(a.report, b.report);
  EXPECT_NE(a.chrome_json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(a.report.find("12 traced request(s)"), std::string::npos);
}

TEST(ClusterProfiler, AttributionCoversTimelineWithoutPerturbingIt) {
  const TracedRun off = run_unaligned(nullptr);

  cluster::Cluster c(cluster::ClusterConfig::with_ibridge());
  SimProfiler prof;
  c.set_profiler(&prof);
  const sim::SimTime flushed = read_unaligned(c, 3);
  const sim::Bytes served = c.total_bytes_served();

  EXPECT_EQ(off.flushed, flushed)
      << "an attached profiler must not perturb the simulated timeline";
  EXPECT_EQ(off.served, served);

  // Every layer saw events, and the category gaps partition the timeline.
  EXPECT_GT(prof.events_total(), 0u);
  std::int64_t total_ns = 0;
  bool server_events = false, disk_events = false, client_events = false;
  for (std::size_t i = 0; i < prof.category_count(); ++i) {
    const int cat = static_cast<int>(i);
    total_ns += prof.model_ns(cat);
    const std::string name = prof.category_name(cat);
    if (name == "server" && prof.events(cat) > 0) server_events = true;
    if (name == "disk" && prof.events(cat) > 0) disk_events = true;
    if (name == "client" && prof.events(cat) > 0) client_events = true;
  }
  EXPECT_TRUE(server_events);
  EXPECT_TRUE(disk_events);
  EXPECT_TRUE(client_events);
  EXPECT_GT(total_ns, 0);
  EXPECT_LE(total_ns, c.sim().now().ns())
      << "summed category gaps reconstruct (at most) the timeline";

  // Heat counters account for exactly the bytes the servers served.
  std::int64_t heat_bytes = 0;
  std::uint64_t heat_ops = 0;
  for (std::size_t s = 0; s < prof.server_count(); ++s) {
    heat_bytes += prof.heat_bytes(s);
    heat_ops += prof.heat_ops(s);
  }
  EXPECT_EQ(heat_bytes, served.count());
  EXPECT_GT(heat_ops, 0u);

  // collect_metrics() publishes the profiler and sketch-backed service
  // tails alongside the component counters.
  MetricsRegistry reg;
  c.collect_metrics(reg);
  EXPECT_TRUE(reg.has("sim.events"));
  EXPECT_TRUE(reg.has("prof.queue_depth.mean"));
  EXPECT_TRUE(reg.has("prof.model_ms.disk"));
  EXPECT_TRUE(reg.has("srv0.prof.heat_ops"));
  EXPECT_TRUE(reg.has("srv0.server.service_ms.p50"));
  EXPECT_TRUE(reg.has("srv0.server.service_ms.p99"));
  EXPECT_EQ(reg.counter("sim.events"),
            static_cast<std::int64_t>(prof.events_total()));

  // Detaching restores the never-profiled wiring.
  c.set_profiler(nullptr);
  MetricsRegistry bare;
  c.collect_metrics(bare);
  EXPECT_FALSE(bare.has("sim.events"));
}

}  // namespace
}  // namespace ibridge::obs
