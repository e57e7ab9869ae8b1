#include "cluster/cluster.hpp"

#include <stdexcept>

#include "storage/hdd.hpp"

namespace ibridge::cluster {

ClusterConfig ClusterConfig::stock() {
  ClusterConfig c;
  c.server.ibridge = core::IBridgeConfig::stock();
  c.client.tag_fragments = false;
  return c;
}

ClusterConfig ClusterConfig::with_ibridge(core::IBridgeConfig ib) {
  ClusterConfig c;
  ib.enabled = true;
  c.server.ibridge = ib;
  c.client.tag_fragments = true;
  c.client.fragment_threshold = ib.fragment_threshold;
  return c;
}

ClusterConfig ClusterConfig::ssd_only() {
  ClusterConfig c;
  c.server.ibridge = core::IBridgeConfig::stock();
  c.server.storage_mode = pvfs::StorageMode::kSsdOnly;
  c.client.tag_fragments = false;
  return c;
}

storage::SeekProfile profile_disk(const storage::HddParams& params) {
  // Offline profiling happens on an idle disk before deployment: use a
  // scratch simulator and a scratch device with the same parameters, with
  // anticipation off (the profiler issues one request at a time anyway).
  sim::Simulator scratch;
  storage::HddParams p = params;
  p.anticipation_ms = 0.0;
  storage::HddModel disk(scratch, p);
  return storage::profile_device(scratch, disk);
}

Cluster::Cluster(const ClusterConfig& cfg) : cfg_(cfg) {
  if (cfg.shards != 0 && cfg.shards != 1) {
    throw std::invalid_argument(
        "ClusterConfig::shards must be 0 (classic core) or 1 (sharded core)");
  }
  const std::size_t client_events =
      static_cast<std::size_t>(cfg.client_nodes) *
          static_cast<std::size_t>(cfg.procs_per_node) * 4 +
      256;
  const std::size_t server_events = 64;
  const int group_size = cfg.shard_group_size < 1 ? 1 : cfg.shard_group_size;
  if (cfg.shards == 1) {
    // Sharded core: shard 0 = client + MDS side, shard 1 + i / group_size
    // = data server i.  The shard structure is fixed by the topology and
    // the grouping.  The barrier lookahead is the network wire latency —
    // the minimum time any cross-shard interaction takes (ShardGroup
    // rejects a non-positive lookahead, i.e. a zero-latency network).
    const int groups =
        cfg.data_servers == 0 ? 0 : (cfg.data_servers - 1) / group_size + 1;
    group_ = std::make_unique<sim::ShardGroup>(1 + groups,
                                               cfg.network.wire_latency());
    if (cfg.adaptive_window_us > 0.0) {
      group_->set_adaptive_window(
          sim::SimTime::from_seconds(cfg.adaptive_window_us / 1e6));
    }
    front_ = &group_->shard(0);
    front_->reserve(client_events);
    for (int g = 0; g < groups; ++g) {
      // Each group shard hosts up to `group_size` servers' event streams.
      const int members = g == groups - 1
                              ? cfg.data_servers - g * group_size
                              : group_size;
      group_->shard(1 + g).reserve(
          static_cast<std::size_t>(members) * server_events + 256);
    }
  } else {
    // Pre-size the event heap for the steady-state population: every rank
    // can have a few events in flight (NIC, disk queue, coroutine resume)
    // plus per-server daemons.  Avoids heap regrowth pauses mid-run.
    sim_.reserve(client_events +
                 static_cast<std::size_t>(cfg.data_servers) * server_events);
  }
  net_ = std::make_unique<net::NetworkModel>(*front_, cfg.network);
  net_->set_shard_group(group_.get());

  storage::SeekProfile profile;
  if (cfg.server.ibridge.enabled) {
    profile = profile_disk(cfg.server.hdd);
  }

  servers_.reserve(static_cast<std::size_t>(cfg.data_servers));
  std::vector<pvfs::DataServer*> raw;
  for (int i = 0; i < cfg.data_servers; ++i) {
    sim::Simulator& ssim = group_ ? group_->shard(1 + i / group_size) : sim_;
    net::Nic& nic = net_->add_endpoint("ds" + std::to_string(i), ssim);
    server_nics_.push_back(&nic);
    servers_.push_back(std::make_unique<pvfs::DataServer>(
        ssim, sim::ServerId{i}, cfg.server, nic, profile));
    raw.push_back(servers_.back().get());
  }

  mds_nic_ = &net_->add_endpoint("mds");
  mds_ = std::make_unique<pvfs::MetadataServer>(
      *front_, raw, *mds_nic_, cfg.server.ibridge.t_report_interval);
  mds_->set_shard_group(group_.get());
  mds_->start_board_daemon();

  for (int i = 0; i < cfg.client_nodes; ++i) {
    client_nics_.push_back(&net_->add_endpoint("cn" + std::to_string(i)));
  }

  pvfs::ClientConfig cc = cfg.client;
  cc.procs_per_node = cfg.procs_per_node;
  client_ = std::make_unique<pvfs::Client>(*front_, *mds_, raw, *net_,
                                           client_nics_, cc);
}

Cluster::~Cluster() {
  mds_->stop();
  for (auto& s : servers_) {
    if (s->cache()) s->cache()->stop();
  }
}

pvfs::FileHandle Cluster::create_file(const std::string& name,
                                      std::int64_t size) {
  const pvfs::FileHandle existing = mds_->lookup(name);
  if (existing != pvfs::kInvalidHandle) return existing;
  return mds_->create_file(name, size, cfg_.stripe_unit);
}

void Cluster::restart_daemons() {
  mds_->start_board_daemon();
  for (auto& s : servers_) {
    if (s->cache()) s->cache()->start();
  }
}

sim::SimTime Cluster::drain() {
  // Stop periodic daemons so the event queue can empty, flush the caches,
  // then run everything down.
  mds_->stop();
  stop_metrics_sampler();
  bool done = false;
  // Drain one server's cache, ending on shard 0: the JoinSet's completion
  // counter lives there, so a sharded cluster must hop back before the
  // wrapper increments it.  (Unsharded, the hop is skipped and the extra
  // coroutine layer schedules no events — the timeline is unchanged.)
  auto drain_one = [](Cluster& c, pvfs::DataServer& s) -> sim::Task<> {
    co_await s.cache()->drain();
    if (c.shard_group() != nullptr) {
      co_await c.shard_group()->hop(s.sim(), c.sim());
    }
  };
  // Drain every server concurrently — the flushes overlap in simulated
  // time exactly as the real servers' write-back threads would.
  auto drain_all = [&drain_one](Cluster& c, bool& flag) -> sim::Task<> {
    sim::JoinSet join(c.sim());
    for (int i = 0; i < c.server_count(); ++i) {
      if (c.server(i).cache()) join.add(drain_one(c, c.server(i)));
    }
    co_await join.join();
    flag = true;
  };
  auto task = drain_all(*this, done);
  for (auto& s : servers_) {
    if (s->cache()) s->cache()->stop();
  }
  task.start();
  sim().run_while_pending([&] { return done; });
  const sim::SimTime flushed = sim().now();
  // Clear the queue (stale daemon wake-ups, in-flight background copies);
  // this may advance the clock past `flushed`, which callers must ignore.
  sim().run();
  return flushed;
}

void Cluster::install_observer(core::CacheObserver* obs) {
  for (auto& s : servers_) s->set_observer(obs);
}

void Cluster::set_trace(obs::TraceSession* session) {
  // TraceSession stamps spans with one clock; shard clocks advance
  // independently inside a window, so tracing requires the classic core.
  if (session != nullptr && group_ != nullptr) {
    throw std::logic_error(
        "Cluster::set_trace: tracing requires the classic core (shards = 0)");
  }
  client_->set_trace(session);
  for (auto& s : servers_) s->set_trace(session);
}

void Cluster::set_profiler(obs::SimProfiler* profiler) {
  profiler_ = profiler;
  if (profiler != nullptr) {
    profiler->set_server_count(servers_.size());
    client_->set_profiler(profiler, profiler->category("client"));
  } else {
    client_->set_profiler(nullptr, 0);
  }
  // Interns categories — must precede lane creation (lanes size their
  // counters to the categories known at creation).
  for (auto& s : servers_) s->set_profiler(profiler);
  // One lane per simulator: the classic core's single one, or each shard's
  // (the profiler's accessors fan the lanes back in; see obs/profiler.hpp).
  const int sims = group_ == nullptr ? 1 : group_->shards();
  if (profiler != nullptr) {
    profiler->set_lane_count(static_cast<std::size_t>(sims));
  }
  for (int k = 0; k < sims; ++k) {
    sim::Simulator& s = group_ == nullptr ? sim_ : group_->shard(k);
    s.set_step_hook(profiler == nullptr
                        ? nullptr
                        : profiler->lane_hook(static_cast<std::size_t>(k)));
  }
}

void Cluster::collect_metrics(obs::MetricsRegistry& reg) const {
  reg.counter("client.bytes_completed") = client_->bytes_completed();
  if (profiler_ != nullptr) profiler_->publish(reg);

  core::CacheStats agg;
  bool any_cache = false;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const auto& s = *servers_[i];
    const std::string p = "srv" + std::to_string(i) + ".";
    reg.counter(p + "server.bytes_served") = s.bytes_served().count();
    reg.gauge(p + "server.service_ms.mean") = s.service_meter().mean_ms();
    reg.gauge(p + "server.service_ms.p50") = s.service_meter().p50_ms();
    reg.gauge(p + "server.service_ms.p99") = s.service_meter().p99_ms();

    const auto& disk = s.disk();
    reg.gauge(p + "disk.busy_ms") = disk.busy_time().to_millis();
    reg.counter(p + "disk.read_bytes") = disk.bytes_read();
    reg.counter(p + "disk.write_bytes") = disk.bytes_written();
    if (const auto* ssd = s.ssd()) {
      reg.gauge(p + "ssd.busy_ms") = ssd->busy_time().to_millis();
      reg.counter(p + "ssd.read_bytes") = ssd->bytes_read();
      reg.counter(p + "ssd.write_bytes") = ssd->bytes_written();
    }

    const auto* c = s.cache();
    if (c == nullptr) continue;
    any_cache = true;
    const core::CacheStats& st = c->stats();
    reg.counter(p + "cache.read_hits") =
        static_cast<std::int64_t>(st.read_hits);
    reg.counter(p + "cache.read_misses") =
        static_cast<std::int64_t>(st.read_misses);
    reg.counter(p + "cache.write_admits") =
        static_cast<std::int64_t>(st.write_admits);
    reg.counter(p + "cache.write_disk") =
        static_cast<std::int64_t>(st.write_disk);
    reg.counter(p + "cache.stages") = static_cast<std::int64_t>(st.stages);
    reg.counter(p + "cache.evictions") =
        static_cast<std::int64_t>(st.evictions);
    reg.counter(p + "cache.writebacks") =
        static_cast<std::int64_t>(st.writebacks);
    reg.counter(p + "cache.writeback_bytes") = st.writeback_bytes.count();
    reg.gauge(p + "cache.cached_bytes") =
        static_cast<double>(c->cached_bytes().count());
    for (int k = 0; k < core::kNumClasses; ++k) {
      const auto klass = static_cast<core::CacheClass>(k);
      const std::string suffix = core::to_string(klass);
      reg.counter(p + "cache.admit." + suffix) =
          static_cast<std::int64_t>(st.admit_by_class[k]);
      reg.gauge(p + "cache.partition_bytes." + suffix) =
          static_cast<double>(c->table().bytes_cached(klass).count());
      reg.gauge(p + "cache.quota_bytes." + suffix) = static_cast<double>(
          c->partition().quota(c->table(), klass).count());
    }

    // Cluster-wide aggregates.
    agg.read_hits += st.read_hits;
    agg.read_misses += st.read_misses;
    agg.write_admits += st.write_admits;
    agg.write_disk += st.write_disk;
    agg.stages += st.stages;
    agg.evictions += st.evictions;
    agg.writebacks += st.writebacks;
    agg.boosts += st.boosts;
    agg.cleanings += st.cleanings;
    agg.writeback_bytes += st.writeback_bytes;
    agg.ssd_bytes_served += st.ssd_bytes_served;
    agg.disk_bytes_served += st.disk_bytes_served;
    reg.histogram("cache.ret_estimate_ms").merge(st.ret_estimate_ms);
  }

  reg.counter("cluster.bytes_served") = total_bytes_served().count();
  if (!any_cache) return;
  reg.counter("cache.read_hits") = static_cast<std::int64_t>(agg.read_hits);
  reg.counter("cache.read_misses") =
      static_cast<std::int64_t>(agg.read_misses);
  reg.counter("cache.write_admits") =
      static_cast<std::int64_t>(agg.write_admits);
  reg.counter("cache.write_disk") = static_cast<std::int64_t>(agg.write_disk);
  reg.counter("cache.stages") = static_cast<std::int64_t>(agg.stages);
  reg.counter("cache.evictions") = static_cast<std::int64_t>(agg.evictions);
  reg.counter("cache.writebacks") = static_cast<std::int64_t>(agg.writebacks);
  reg.counter("cache.boosts") = static_cast<std::int64_t>(agg.boosts);
  reg.counter("cache.cleanings") = static_cast<std::int64_t>(agg.cleanings);
  reg.counter("cache.writeback_bytes") = agg.writeback_bytes.count();
  reg.counter("cache.ssd_bytes_served") = agg.ssd_bytes_served.count();
  reg.counter("cache.disk_bytes_served") = agg.disk_bytes_served.count();
  reg.gauge("cache.cached_bytes") =
      static_cast<double>(ssd_cached_bytes().count());
}

void Cluster::start_metrics_sampler(sim::SimTime interval,
                                    obs::TimeSeries* out) {
  if (out == nullptr || interval <= sim::SimTime::zero()) {
    throw std::invalid_argument(
        "Cluster::start_metrics_sampler: needs a series and a positive "
        "interval");
  }
  sampler_running_ = true;
  const std::uint64_t epoch = ++sampler_epoch_;
  if (group_ == nullptr) {
    schedule_sample(interval, out, epoch);
    return;
  }
  // Sharded: a tick scheduled on one shard would read every server's
  // counters mid-window, while the other shards' clocks stand at arbitrary
  // points of that window — an incoherent snapshot.  Instead the sampler
  // rides the barrier hook, where every event before the horizon has
  // executed and none after it has: each grid point is emitted, with its
  // grid timestamp, once the horizon passes it.  The horizon is a pure
  // function of the schedule, so the samples are deterministic.
  sampler_next_ = front_->now() + interval;
  group_->set_barrier_hook([this, interval, out, epoch](sim::SimTime horizon) {
    if (!sampler_running_ || epoch != sampler_epoch_) return;
    while (sampler_next_ < horizon) {
      obs::MetricsRegistry reg;
      collect_metrics(reg);
      out->sample(sampler_next_, reg);
      sampler_next_ += interval;
    }
  });
}

void Cluster::stop_metrics_sampler() {
  sampler_running_ = false;
  ++sampler_epoch_;
  if (group_ != nullptr) group_->set_barrier_hook(nullptr);
}

void Cluster::schedule_sample(sim::SimTime interval, obs::TimeSeries* out,
                              std::uint64_t epoch) {
  sim_.schedule(interval, [this, interval, out, epoch] {
    if (!sampler_running_ || epoch != sampler_epoch_) return;
    obs::MetricsRegistry reg;
    collect_metrics(reg);
    out->sample(sim_.now(), reg);
    schedule_sample(interval, out, epoch);
  });
}

void Cluster::enable_disk_trace(int server, bool keep_entries) {
  auto& tr = servers_[static_cast<std::size_t>(server)]->disk().trace();
  tr.set_enabled(true);
  tr.set_keep_entries(keep_entries);
  tr.clear();
}

sim::Bytes Cluster::total_bytes_served() const {
  sim::Bytes sum = sim::Bytes::zero();
  for (const auto& s : servers_) sum += s->bytes_served();
  return sum;
}

sim::Bytes Cluster::ssd_bytes_served() const {
  sim::Bytes sum = sim::Bytes::zero();
  for (const auto& s : servers_) {
    if (const auto* c = s->cache()) sum += c->stats().ssd_bytes_served;
  }
  return sum;
}

sim::Bytes Cluster::ssd_cached_bytes() const {
  sim::Bytes sum = sim::Bytes::zero();
  for (const auto& s : servers_) {
    if (const auto* c = s->cache()) sum += c->cached_bytes();
  }
  return sum;
}

double Cluster::avg_service_ms() const {
  stats::Summary all;
  for (const auto& s : servers_) all.merge(s->service_meter().summary());
  return all.mean();
}

}  // namespace ibridge::cluster
