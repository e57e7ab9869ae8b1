#include "pvfs/layout.hpp"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <map>

namespace ibridge::pvfs {

Bytes StripingLayout::server_share(Bytes file_size, ServerId server) const {
  assert(server.index() >= 0 && server.index() < servers_);
  if (file_size <= Bytes::zero()) return Bytes::zero();
  const std::int64_t full_stripes = file_size / unit_;
  const Bytes rem = file_size % unit_;
  const std::int64_t rounds = full_stripes / servers_;
  const std::int64_t extra = full_stripes % servers_;
  Bytes share = rounds * unit_;
  if (server.index() < extra) share += unit_;
  if (server.index() == static_cast<int>(extra) && rem > Bytes::zero()) {
    share += rem;
  }
  return share;
}

std::vector<SubRequestSpec> StripingLayout::decompose(Offset offset,
                                                      Bytes length) const {
  std::vector<SubRequestSpec> out;
  decompose_into(offset, length, out);
  return out;
}

void StripingLayout::decompose_into(Offset offset, Bytes length,
                                    std::vector<SubRequestSpec>& out) const {
  assert(offset >= Offset::zero() && length > Bytes::zero());
  out.clear();
  Offset pos = offset;
  Bytes remaining = length;
  while (remaining > Bytes::zero()) {
    const Bytes in_unit = pos % unit_;
    const Bytes take = std::min(remaining, unit_ - in_unit);
    SubRequestSpec s;
    s.server = server_of(pos);
    s.logical_offset = pos;
    s.server_offset = server_offset_of(pos);
    s.length = take;
    // Coalesce with the previous piece when contiguous on the same server's
    // datafile (happens when servers_ == 1: consecutive stripes collapse).
    if (!out.empty() && out.back().server == s.server &&
        out.back().server_offset + out.back().length == s.server_offset &&
        out.back().logical_offset + out.back().length == s.logical_offset) {
      out.back().length += take;
    } else {
      out.push_back(s);
    }
    pos += take;
    remaining -= take;
  }
}

std::vector<SubRequestSpec> StripingLayout::decompose_per_server(
    Offset offset, Bytes length) const {
  auto pieces = decompose(offset, length);
  // Merge pieces per server, keeping the first piece's offsets and summing
  // lengths.  Preserve first-touch order.
  std::vector<SubRequestSpec> out;
  std::map<ServerId, std::size_t> index;
  for (const auto& p : pieces) {
    auto [it, inserted] = index.emplace(p.server, out.size());
    if (inserted) {
      out.push_back(p);
    } else {
      out[it->second].length += p.length;
    }
  }
  return out;
}

}  // namespace ibridge::pvfs
