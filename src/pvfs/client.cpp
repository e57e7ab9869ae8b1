#include "pvfs/client.hpp"

#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

namespace ibridge::pvfs {

using storage::IoDirection;

namespace {

/// Checked in read_at/write_at before request() starts: a throw inside the
/// request coroutine would terminate the process instead of reaching the
/// caller.
void require_positive_length(std::int64_t length) {
  if (length <= 0) {
    throw std::invalid_argument(
        "pvfs::Client: request length must be positive, got " +
        std::to_string(length));
  }
}

}  // namespace

Client::Client(sim::Simulator& sim, MetadataServer& mds,
               std::vector<DataServer*> servers, net::NetworkModel& net,
               std::vector<net::Nic*> node_nics, ClientConfig cfg)
    : sim_(sim),
      mds_(mds),
      servers_(std::move(servers)),
      net_(net),
      node_nics_(std::move(node_nics)),
      cfg_(cfg),
      tagger_(sim::Bytes{cfg.fragment_threshold}),
      rng_(cfg.seed) {
  if (servers_.empty() || node_nics_.empty()) {
    throw std::invalid_argument(
        "pvfs::Client: needs at least one data server and one client NIC");
  }
  // Each request fans out one sub-request per data server, and each
  // sub-request keeps an event or two pending (net hop, device completion,
  // deferred resume).  Reserve so request bursts never regrow the heap.
  sim_.reserve(servers_.size() * 8 + node_nics_.size() * 4 + 64);
}

sim::Task<sim::SimTime> Client::read_at(int rank, FileHandle fh,
                                        std::int64_t offset,
                                        std::int64_t length,
                                        std::span<std::byte> data) {
  require_positive_length(length);
  return request(rank, fh, offset, length, IoDirection::kRead, {}, data);
}

sim::Task<sim::SimTime> Client::write_at(int rank, FileHandle fh,
                                         std::int64_t offset,
                                         std::int64_t length,
                                         std::span<const std::byte> data) {
  require_positive_length(length);
  return request(rank, fh, offset, length, IoDirection::kWrite, data, {});
}

sim::Task<sim::SimTime> Client::request(int rank, FileHandle fh,
                                        std::int64_t offset,
                                        std::int64_t length,
                                        IoDirection dir,
                                        std::span<const std::byte> wdata,
                                        std::span<std::byte> rdata) {
  assert(length > 0);
  if (profiler_ != nullptr) profiler_->mark(prof_cat_);
  const sim::SimTime t0 = sim_.now();

  obs::RequestId rid = 0;
  obs::SpanId root = 0;
  if (trace_ != nullptr) {
    rid = trace_->new_request();
    root = trace_->begin(
        trace_->track("client", "rank" + std::to_string(rank)), "request",
        "client", rid);
    trace_->arg(root, "rank", rank);
    trace_->arg(root, "offset", offset);
    trace_->arg(root, "length", length);
    trace_->arg(root, "dir", dir == IoDirection::kWrite ? "write" : "read");
  }

  // Client-side request setup cost with jitter (see ClientConfig).
  if (cfg_.overhead_max_us > 0) {
    const obs::SpanId setup =
        root != 0 ? trace_->child(root, "setup", "client") : 0;
    const double us =
        cfg_.overhead_min_us +
        rng_.uniform01() * (cfg_.overhead_max_us - cfg_.overhead_min_us);
    co_await sim::Delay{sim_, sim::SimTime::from_seconds(us / 1e6)};
    if (setup != 0) trace_->end(setup);
  }

  LogicalFile& f = mds_.file(fh);

  // Decompose (io_datafile_setup_msgpairs) and tag fragments client-side
  // into pooled scratch.  The leases live only inside this suspension-free
  // block (join.add runs each child to its first co_await, which copies the
  // piece into the child's frame), so however many ranks are mid-request,
  // at most one per shard holds the buffers at any instant — steady state
  // recycles the same two, allocation-free at any scale.
  sim::JoinSet join(sim_);
  std::size_t subs = 0;
  {
    sim::VectorPool<SubRequestSpec>::Lease pieces = piece_pool_.acquire();
    f.layout.decompose_into(sim::Offset{offset}, sim::Bytes{length}, *pieces);
    sim::VectorPool<core::TaggedSubRequest>::Lease tagged =
        tagged_pool_.acquire();
    if (cfg_.tag_fragments) {
      tagger_.tag_into(*pieces, static_cast<int>(servers_.size()), *tagged);
    } else {
      tagged->reserve(pieces->size());
      for (const auto& p : *pieces)
        tagged->push_back({p.server, p.server_offset, p.length, false, {}});
    }
    subs = tagged->size();

    // Issue every sub-request concurrently; the parent completes when the
    // slowest sub-request does.
    std::int64_t consumed = 0;
    for (std::size_t i = 0; i < tagged->size(); ++i) {
      const core::TaggedSubRequest& sub = (*tagged)[i];
      const std::int64_t piece_off = consumed;
      consumed += sub.length.count();
      std::span<const std::byte> wsub;
      std::span<std::byte> rsub;
      if (!wdata.empty()) {
        wsub = wdata.subspan(static_cast<std::size_t>(piece_off),
                             static_cast<std::size_t>(sub.length.count()));
      }
      if (!rdata.empty()) {
        rsub = rdata.subspan(static_cast<std::size_t>(piece_off),
                             static_cast<std::size_t>(sub.length.count()));
      }
      obs::SpanId sub_span = 0;
      if (root != 0) {
        sub_span = trace_->child(root, "sub", "client");
        trace_->arg(sub_span, "server", sub.server.index());
        trace_->arg(sub_span, "fragment", sub.fragment ? 1 : 0);
        trace_->arg(sub_span, "length", sub.length.count());
        trace_->arg(sub_span, "index", static_cast<std::int64_t>(i));
      }
      join.add(
          subrequest(rank, f, sub, offset, dir, wsub, rsub, rid, sub_span));
    }
  }
  co_await join.join();
  if (profiler_ != nullptr) profiler_->mark(prof_cat_);

  if (dir == IoDirection::kWrite) f.size = std::max(f.size, offset + length);
  bytes_completed_ += length;
  if (root != 0) {
    trace_->arg(root, "subs", static_cast<std::int64_t>(subs));
    trace_->end(root);
  }
  co_return sim_.now() - t0;
}

sim::Task<> Client::subrequest(int rank, const LogicalFile& f,
                               core::TaggedSubRequest sub,
                               std::int64_t /*parent_off*/, IoDirection dir,
                               std::span<const std::byte> wdata,
                               std::span<std::byte> rdata,
                               obs::RequestId request_id,
                               obs::SpanId sub_span) {
  DataServer& server = *servers_[static_cast<std::size_t>(sub.server.index())];
  net::Nic& cnic = nic_of_rank(rank);

  // Request message (and payload, for writes) to the server.
  obs::SpanId nspan =
      sub_span != 0 ? trace_->child(sub_span, "net.send", "net") : 0;
  if (dir == IoDirection::kWrite) {
    co_await net_.transfer(cnic, server.nic(), sub.length.count() + 256);
  } else {
    co_await net_.message(cnic, server.nic());
  }
  if (nspan != 0) trace_->end(nspan);

  core::CacheRequest req;
  req.dir = dir;
  req.file = f.datafiles[static_cast<std::size_t>(sub.server.index())];
  req.offset = sub.server_offset;
  req.length = sub.length;
  req.fragment = sub.fragment;
  req.siblings = sub.siblings;
  req.tag = rank;
  req.trace_request = request_id;
  req.trace_parent = sub_span;
  co_await server.io(std::move(req), wdata, rdata);

  // Payload (reads) or ack (writes) back to the client.
  nspan = sub_span != 0 ? trace_->child(sub_span, "net.recv", "net") : 0;
  if (dir == IoDirection::kRead) {
    co_await net_.transfer(server.nic(), cnic, sub.length.count() + 256);
  } else {
    co_await net_.message(server.nic(), cnic);
  }
  if (nspan != 0) {
    trace_->end(nspan);
  }
  if (sub_span != 0) trace_->end(sub_span);
}

}  // namespace ibridge::pvfs
