#include "check/differential.hpp"

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "fault/engine.hpp"
#include "sim/digest.hpp"
#include "sim/task.hpp"

namespace ibridge::check {

namespace {

struct DriveState {
  const FuzzCase* c = nullptr;
  pvfs::Client* client = nullptr;
  pvfs::FileHandle fh = pvfs::kInvalidHandle;
  std::vector<std::byte> image;  ///< reference: what the file must contain
  // 1 == byte written during THIS run.  On a long-lived cluster the file
  // keeps its bytes between cases, so only bytes this run wrote have a
  // reference value; unwritten bytes are still cross-checked across policies
  // through the image digest.
  std::vector<std::uint8_t> written;
  sim::Digest payload;
  std::uint64_t requests = 0;
  bool ryw_ok = true;
  std::string failure;
  bool done = false;
};

sim::Task<> drive(DriveState& st) {
  std::vector<std::byte> buf;
  for (std::size_t i = 0; i < st.c->trace.size(); ++i) {
    const auto& rec = st.c->trace[i];
    const std::int64_t size = std::min(rec.size, st.c->file_bytes);
    const std::int64_t off =
        std::clamp<std::int64_t>(rec.offset, 0, st.c->file_bytes - size);
    buf.assign(static_cast<std::size_t>(size), std::byte{0});
    if (rec.write) {
      fill_payload(buf, record_seed(st.c->seed, i));
      co_await st.client->write_at(0, st.fh, off, size, buf);
      std::copy(buf.begin(), buf.end(),
                st.image.begin() + static_cast<std::ptrdiff_t>(off));
      std::fill(st.written.begin() + static_cast<std::ptrdiff_t>(off),
                st.written.begin() + static_cast<std::ptrdiff_t>(off + size),
                std::uint8_t{1});
    } else {
      co_await st.client->read_at(0, st.fh, off, size, buf);
      st.payload.update(buf);
      bool match = true;
      for (std::int64_t k = 0; k < size && match; ++k) {
        const auto idx = static_cast<std::size_t>(off + k);
        match = !st.written[idx] ||
                buf[static_cast<std::size_t>(k)] == st.image[idx];
      }
      if (st.ryw_ok && !match) {
        st.ryw_ok = false;
        st.failure = "read-your-writes violated by record " +
                     std::to_string(i) + " (offset " + std::to_string(off) +
                     ", size " + std::to_string(size) + ")";
      }
    }
    ++st.requests;
  }
  st.done = true;
}

struct ReadbackState {
  pvfs::Client* client = nullptr;
  pvfs::FileHandle fh = pvfs::kInvalidHandle;
  std::int64_t bytes = 0;
  std::vector<std::byte> data;
  bool done = false;
};

sim::Task<> read_back(ReadbackState& st) {
  st.data.assign(static_cast<std::size_t>(st.bytes), std::byte{0});
  // Stripe-friendly chunks; a single giant request would be decomposed
  // anyway, but bounded chunks keep per-request buffers small.
  constexpr std::int64_t kChunk = 1 << 20;
  for (std::int64_t off = 0; off < st.bytes; off += kChunk) {
    const std::int64_t len = std::min(kChunk, st.bytes - off);
    co_await st.client->read_at(
        0, st.fh, off, len,
        std::span<std::byte>(st.data).subspan(static_cast<std::size_t>(off),
                                              static_cast<std::size_t>(len)));
  }
  st.done = true;
}

std::uint64_t stats_digest_of(cluster::Cluster& cl, const RunReport& r) {
  sim::Digest d;
  d.update_u64(static_cast<std::uint64_t>(r.policy))
      .update_u64(r.requests)
      .update_u64(r.events)
      .update_i64(r.io_elapsed.ns())
      .update_i64(r.total_elapsed.ns())
      .update_u64(r.payload_digest)
      .update_u64(r.image_digest);
  for (int i = 0; i < cl.server_count(); ++i) {
    auto& s = cl.server(i);
    d.update_i64(s.bytes_served().count());
    if (auto* cache = s.cache()) {
      const core::CacheStats& cs = cache->stats();
      d.update_i64(cs.ssd_bytes_served.count())
          .update_i64(cs.disk_bytes_served.count())
          .update_u64(cs.read_hits)
          .update_u64(cs.read_misses)
          .update_u64(cs.write_admits)
          .update_u64(cs.write_disk)
          .update_u64(cs.stages)
          .update_u64(cs.evictions)
          .update_u64(cs.writebacks)
          .update_u64(cs.boosts)
          .update_u64(cs.cleanings);
      for (auto n : cs.admit_by_class) d.update_u64(n);
      d.update_i64(cache->cached_bytes().count());
      d.update_u64(table_digest(cache->table()));
    }
  }
  // Healthy runs fold nothing extra, so their digests are unchanged by the
  // existence of fault injection.
  if (r.faulted) d.update_u64(r.fault_digest);
  return d.value();
}

void append_failure(std::string& dst, const std::string& msg) {
  if (msg.empty()) return;
  if (!dst.empty()) dst += "; ";
  dst += msg;
}

}  // namespace

RunReport run_case(cluster::Cluster& cluster, const FuzzCase& c, Policy p,
                   core::CacheObserver* obs, const std::string& file_name) {
  RunReport r;
  r.policy = p;

  const std::string name =
      file_name.empty() ? "simcheck-" + std::to_string(c.seed) + ".dat"
                        : file_name;

  if (obs) cluster.install_observer(obs);
  cluster.restart_daemons();

  const sim::SimTime t0 = cluster.sim().now();
  const std::uint64_t e0 = cluster.sim().events_executed();

  DriveState st;
  st.c = &c;
  st.client = &cluster.client();
  st.fh = cluster.create_file(name, c.file_bytes);
  st.image.assign(static_cast<std::size_t>(c.file_bytes), std::byte{0});
  st.written.assign(static_cast<std::size_t>(c.file_bytes), 0);

  // Inject the case's fault schedule (if any) while the trace runs; every
  // policy run gets the identical schedule.
  std::unique_ptr<fault::FaultEngine> engine;
  if (!c.faults.empty()) {
    engine = std::make_unique<fault::FaultEngine>(cluster, c.faults);
    engine->start();
  }

  auto io = drive(st);
  io.start();
  cluster.sim().run_while_pending([&] { return st.done; });
  const sim::SimTime io_done = cluster.sim().now();

  // Let every crash actor run to completion (restart, recovery replay,
  // degraded drain) before the final drain, so drain() sees healthy
  // servers and the fault digest is complete.
  if (engine != nullptr) {
    cluster.sim().run_while_pending([&] { return engine->done(); });
    r.fault_digest = engine->digest();
    r.faulted = true;
  }

  const sim::SimTime flushed = cluster.drain();

  // Read the final file image back through the full stack and hold it
  // against the reference (daemons stay stopped; the queue drains).
  ReadbackState rb;
  rb.client = &cluster.client();
  rb.fh = st.fh;
  rb.bytes = c.file_bytes;
  auto rb_task = read_back(rb);
  rb_task.start();
  cluster.sim().run_while_pending([&] { return rb.done; });
  cluster.sim().run();  // settle background stage copies from the read-back

  r.requests = st.requests;
  r.read_your_writes_ok = st.ryw_ok;
  r.failure = st.failure;
  if (engine != nullptr) append_failure(r.failure, engine->failure());
  r.payload_digest = st.payload.value();
  r.image_digest =
      sim::Digest().update(std::span<const std::byte>(rb.data)).value();
  bool image_ok = rb.data.size() == st.image.size();
  for (std::size_t k = 0; image_ok && k < rb.data.size(); ++k) {
    image_ok = !st.written[k] || rb.data[k] == st.image[k];
  }
  if (!image_ok) {
    append_failure(r.failure, "final image diverged from the reference");
  }
  r.io_elapsed = io_done - t0;
  r.total_elapsed = flushed - t0;
  r.events = cluster.sim().events_executed() - e0;

  // With everything settled the caches must be exactly consistent.
  for (int i = 0; i < cluster.server_count(); ++i) {
    if (auto* cache = cluster.server(i).cache()) {
      for (const auto& v : verify_cache(*cache, /*quiescent=*/true)) {
        append_failure(r.failure, "server " + std::to_string(i) + ": " + v);
      }
    }
  }

  r.stats_digest = stats_digest_of(cluster, r);
  if (obs) cluster.install_observer(nullptr);
  return r;
}

DiffReport run_differential(cluster::Cluster& disk, cluster::Cluster& ib,
                            cluster::Cluster& ssd, const FuzzCase& c,
                            const std::string& file_name) {
  DiffReport d;
  d.disk = run_case(disk, c, Policy::kDiskOnly, nullptr, file_name);
  InvariantOracle oracle;
  d.ibridge = run_case(ib, c, Policy::kIBridge, &oracle, file_name);
  d.ssd = run_case(ssd, c, Policy::kSsdOnly, nullptr, file_name);

  append_failure(d.failure, d.disk.failure.empty()
                                ? ""
                                : "disk-only: " + d.disk.failure);
  append_failure(d.failure,
                 d.ibridge.failure.empty() ? "" : "ibridge: " + d.ibridge.failure);
  append_failure(d.failure,
                 d.ssd.failure.empty() ? "" : "ssd-only: " + d.ssd.failure);
  if (!oracle.ok()) {
    append_failure(d.failure, "oracle: " + oracle.failures().front());
  }

  d.payload_equal = d.disk.payload_digest == d.ibridge.payload_digest &&
                    d.disk.payload_digest == d.ssd.payload_digest &&
                    d.disk.image_digest == d.ibridge.image_digest &&
                    d.disk.image_digest == d.ssd.image_digest;
  if (!d.payload_equal) {
    append_failure(d.failure, "payload diverged across policies");
  }

  const double times[] = {d.disk.total_elapsed.to_seconds(),
                          d.ibridge.total_elapsed.to_seconds(),
                          d.ssd.total_elapsed.to_seconds()};
  for (double a : times) {
    for (double b : times) {
      if (a > 0 && b > 0) {
        d.max_rel_time_gap =
            std::max(d.max_rel_time_gap, std::abs(a - b) / std::min(a, b));
      }
    }
  }
  return d;
}

DiffReport run_differential(const FuzzCase& c) {
  cluster::Cluster disk(make_config(c, Policy::kDiskOnly));
  cluster::Cluster ib(make_config(c, Policy::kIBridge));
  cluster::Cluster ssd(make_config(c, Policy::kSsdOnly));
  return run_differential(disk, ib, ssd, c);
}

DeterminismReport check_determinism(const FuzzCase& c, Policy p) {
  DeterminismReport r;
  {
    cluster::Cluster a(make_config(c, p));
    r.first = run_case(a, c, p);
  }
  {
    cluster::Cluster b(make_config(c, p));
    r.second = run_case(b, c, p);
  }
  r.identical = r.first.events == r.second.events &&
                r.first.requests == r.second.requests &&
                r.first.payload_digest == r.second.payload_digest &&
                r.first.image_digest == r.second.image_digest &&
                r.first.stats_digest == r.second.stats_digest &&
                r.first.fault_digest == r.second.fault_digest &&
                r.first.io_elapsed.ns() == r.second.io_elapsed.ns() &&
                r.first.total_elapsed.ns() == r.second.total_elapsed.ns();
  append_failure(r.failure, r.first.failure);
  append_failure(r.failure, r.second.failure);
  if (!r.identical) {
    append_failure(r.failure, "same seed produced diverging runs");
  }
  return r;
}

}  // namespace ibridge::check
