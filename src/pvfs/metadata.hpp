// Metadata server: file layout registry and the T-value board daemon.
//
// The metadata server maps logical file names to striping layouts and
// per-server datafile handles.  For iBridge it also runs the aggregation
// daemon of Section II-B: every data server periodically reports its current
// decayed average disk service time T; the metadata server collects the
// values and broadcasts the board to all data servers, which use it for the
// Equation (3) striping-magnification boost.  Boards are therefore up to one
// reporting interval stale — exactly as in the paper's design.
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/return_estimator.hpp"
#include "net/network.hpp"
#include "pvfs/layout.hpp"
#include "pvfs/server.hpp"
#include "sim/sync.hpp"
#include "sim/time.hpp"

namespace ibridge::pvfs {

using FileHandle = std::uint32_t;
inline constexpr FileHandle kInvalidHandle = 0;

/// How often each data server reports its T value to the metadata server,
/// and how often the metadata server broadcasts the board (the paper's 1 s).
inline constexpr sim::SimTime kTReportInterval = sim::SimTime::seconds(1);

/// A striped logical file.
struct LogicalFile {
  std::string name;
  StripingLayout layout{1, sim::Bytes{64 * 1024}};
  std::int64_t size = 0;
  std::vector<fsim::FileId> datafiles;  ///< one per data server
};

class MetadataServer {
  // The lookup behind both file() overloads (defined before their use, so
  // its return type is deduced in time).
  template <typename Files>
  static auto& find_file(Files& files, FileHandle h) {
    const auto it = files.find(h);
    if (it == files.end()) {
      throw std::invalid_argument("pvfs::MetadataServer: unknown file handle " +
                                  std::to_string(h));
    }
    return it->second;
  }

 public:
  MetadataServer(sim::Simulator& sim, std::vector<DataServer*> servers,
                 net::Nic& nic)
      : sim_(sim), servers_(std::move(servers)), nic_(nic), daemons_(sim) {}

  ~MetadataServer() { stop(); }

  /// Create a striped file preallocated to `size` bytes.
  FileHandle create_file(const std::string& name, std::int64_t size,
                         std::int64_t stripe_unit);

  /// Throws std::invalid_argument for a handle create_file() never
  /// returned.
  const LogicalFile& file(FileHandle h) const { return find_file(files_, h); }
  LogicalFile& file(FileHandle h) { return find_file(files_, h); }
  FileHandle lookup(const std::string& name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? kInvalidHandle : it->second;
  }

  int server_count() const { return static_cast<int>(servers_.size()); }
  net::Nic& nic() { return nic_; }

  /// Sharded clusters set this before start_board_daemon(): the poll-based
  /// daemon is replaced by per-server T reporters (running on each server's
  /// shard) and a shard-0 broadcaster, with all cross-shard traffic going
  /// through the group's lookahead-buffered post path.
  void set_shard_group(sim::ShardGroup* group) { group_ = group; }

  /// Start the T-board daemon (no-op when no server runs iBridge).
  void start_board_daemon();
  void stop() { running_ = false; ++epoch_; }

  /// The most recent board (for tests/inspection).
  const core::TBoard& board() const { return board_; }

 private:
  sim::Task<> board_daemon();
  sim::Task<> t_reporter(std::size_t s);
  sim::Task<> board_broadcaster();

  sim::Simulator& sim_;
  std::vector<DataServer*> servers_;
  net::Nic& nic_;
  sim::TaskGroup daemons_;
  sim::ShardGroup* group_ = nullptr;
  std::vector<double> t_latest_;  ///< shard-0 copy of each server's last T
  // Ordered maps: iteration over the file registry reaches simulation
  // results (datafile creation order, board daemon), so the containers are
  // deterministic by construction.
  std::map<FileHandle, LogicalFile> files_;
  std::map<std::string, FileHandle> by_name_;
  core::TBoard board_;
  FileHandle next_ = 1;
  bool running_ = false;
  std::uint64_t epoch_ = 0;
};

}  // namespace ibridge::pvfs
