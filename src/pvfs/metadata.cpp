#include "pvfs/metadata.hpp"

namespace ibridge::pvfs {

FileHandle MetadataServer::create_file(const std::string& name,
                                       std::int64_t size,
                                       std::int64_t stripe_unit) {
  assert(by_name_.find(name) == by_name_.end());
  LogicalFile f;
  f.name = name;
  f.layout = StripingLayout(server_count(), sim::Bytes{stripe_unit});
  f.size = size;
  f.datafiles.reserve(servers_.size());
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    // Preallocate each server's share (plus one unit of slack for writes
    // that extend slightly past the nominal size).
    const sim::Bytes share =
        f.layout.server_share(sim::Bytes{size},
                              sim::ServerId{static_cast<int>(s)}) +
        sim::Bytes{stripe_unit};
    f.datafiles.push_back(servers_[s]->create_datafile(
        name + ".df" + std::to_string(s), share));
  }
  const FileHandle h = next_++;
  by_name_.emplace(name, h);
  files_.emplace(h, std::move(f));
  return h;
}

void MetadataServer::start_board_daemon() {
  bool any = false;
  for (auto* s : servers_) any = any || s->has_cache();
  if (!any || running_) return;
  running_ = true;
  ++epoch_;
  if (group_ == nullptr) {
    daemons_.spawn(board_daemon());
    return;
  }
  // Sharded: the single polling daemon would read and write server-shard
  // state from shard 0 mid-window.  Split it into the paper's actual shape —
  // one report daemon per server (on that server's shard) plus the
  // aggregation/broadcast daemon here — with every cross-shard move going
  // through the barrier-merged post path.
  t_latest_.assign(servers_.size(), 0.0);
  for (std::size_t s = 0; s < servers_.size(); ++s) {
    daemons_.spawn(t_reporter(s));
  }
  daemons_.spawn(board_broadcaster());
}

sim::Task<> MetadataServer::t_reporter(std::size_t s) {
  const std::uint64_t epoch = epoch_;
  DataServer* srv = servers_[s];
  sim::Simulator& ssim = srv->sim();
  // First move to the server's shard; only then touch its clock or state.
  co_await group_->hop(sim_, ssim);
  // running_/epoch_ live on shard 0 but are only mutated in driver phase
  // (stop()/start_board_daemon() between runs), so reading them here races
  // with nothing.
  while (running_ && epoch == epoch_) {
    co_await sim::Delay{ssim, kTReportInterval};
    if (!running_ || epoch != epoch_) break;
    const double t = srv->current_t();
    group_->post(ssim, sim_, ssim.now() + group_->lookahead(),
                 sim::InlineEvent([this, s, t] { t_latest_[s] = t; }));
  }
}

sim::Task<> MetadataServer::board_broadcaster() {
  const std::uint64_t epoch = epoch_;
  while (running_ && epoch == epoch_) {
    co_await sim::Delay{sim_, kTReportInterval};
    if (!running_ || epoch != epoch_) break;
    // Aggregate the most recently reported T values (one wire hop staler
    // than the legacy poll — the paper's design point) and push a copy of
    // the board to every server's shard.
    core::TBoard board(t_latest_.begin(), t_latest_.end());
    board_ = board;
    for (auto* srv : servers_) {
      group_->post(sim_, srv->sim(), sim_.now() + group_->lookahead(),
                   sim::InlineEvent([srv, board] { srv->set_board(board); }));
    }
  }
}

sim::Task<> MetadataServer::board_daemon() {
  const std::uint64_t epoch = epoch_;
  while (running_ && epoch == epoch_) {
    co_await sim::Delay{sim_, kTReportInterval};
    if (!running_ || epoch != epoch_) break;
    // Collect the servers' current T values (the per-server report daemons
    // of the paper, collapsed into one poll with identical staleness), then
    // broadcast the board.  Filled in place and copied into each server's
    // existing board, so a broadcast allocates nothing after the first.
    board_.resize(servers_.size());
    for (std::size_t s = 0; s < servers_.size(); ++s) {
      board_[s] = servers_[s]->current_t();
    }
    for (auto* s : servers_) s->set_board(board_);
  }
}

}  // namespace ibridge::pvfs
