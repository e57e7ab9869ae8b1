#include "fsim/filesystem.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace ibridge::fsim {

using storage::kSectorBytes;

// -------------------------------------------------------- allocator ----

std::int64_t ExtentAllocator::allocate(std::int64_t n) {
  assert(n > 0);
  // First fit in the free list.
  for (auto it = free_list_.begin(); it != free_list_.end(); ++it) {
    if (it->second >= n) {
      const std::int64_t lbn = it->first;
      const std::int64_t rest = it->second - n;
      free_list_.erase(it);
      if (rest > 0) free_list_.emplace(lbn + n, rest);
      return lbn;
    }
  }
  if (frontier_ + n > total_) return -1;
  const std::int64_t lbn = frontier_;
  frontier_ += n;
  return lbn;
}

void ExtentAllocator::release(std::int64_t lbn, std::int64_t n) {
  assert(n > 0);
  auto [it, inserted] = free_list_.emplace(lbn, n);
  assert(inserted);
  // Coalesce with neighbours.
  if (it != free_list_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second == it->first) {
      prev->second += it->second;
      free_list_.erase(it);
      it = prev;
    }
  }
  auto next = std::next(it);
  if (next != free_list_.end() && it->first + it->second == next->first) {
    it->second += next->second;
    free_list_.erase(next);
  }
}

std::int64_t ExtentAllocator::free_sectors() const {
  std::int64_t f = total_ - frontier_;
  for (const auto& [_, len] : free_list_) f += len;
  return f;
}

// ------------------------------------------------------------- file ----

std::vector<MappedRange> LocalFile::map(std::int64_t offset,
                                        std::int64_t length) const {
  std::vector<MappedRange> out;
  map_into(offset, length, out);
  return out;
}

void LocalFile::map_into(std::int64_t offset, std::int64_t length,
                         std::vector<MappedRange>& out) const {
  out.clear();
  assert(offset >= 0 && length > 0);
  assert(offset + length <= allocated_sectors_ * storage::kSectorBytes);
  const std::int64_t first_sector = offset / kSectorBytes;
  const std::int64_t last_sector = (offset + length - 1) / kSectorBytes;

  std::int64_t cur = first_sector;
  for (const auto& e : extents_) {
    if (cur > last_sector) break;
    const std::int64_t e_end = e.file_sector + e.sectors;
    if (cur < e.file_sector || cur >= e_end) continue;
    const std::int64_t take = std::min(last_sector + 1, e_end) - cur;
    const std::int64_t lbn = e.lbn + (cur - e.file_sector);
    if (!out.empty() && out.back().lbn + out.back().sectors == lbn) {
      out.back().sectors += take;
    } else {
      out.push_back({lbn, take});
    }
    cur += take;
  }
  assert(cur == last_sector + 1 && "range not fully mapped");
}

// ------------------------------------------------------------ fs ----

FileId LocalFileSystem::create(std::string name, std::int64_t prealloc_bytes) {
  assert(by_name_.find(name) == by_name_.end() && "duplicate file name");
  const FileId id = next_id_++;
  LocalFile f;
  f.name_ = name;
  if (prealloc_bytes > 0) {
    if (!ensure_allocated(f, prealloc_bytes)) return kInvalidFile;
    f.size_bytes_ = prealloc_bytes;
  }
  by_name_.emplace(std::move(name), id);
  files_.emplace(id, std::move(f));
  return id;
}

bool LocalFileSystem::truncate(FileId id, std::int64_t new_size) {
  LocalFile& f = file(id);
  if (!ensure_allocated(f, new_size)) return false;
  f.size_bytes_ = std::max(f.size_bytes_, new_size);
  return true;
}

void LocalFileSystem::remove(FileId id) {
  LocalFile& f = file(id);
  for (const auto& e : f.extents_) alloc_.release(e.lbn, e.sectors);
  by_name_.erase(f.name_);
  data_.erase(id);
  files_.erase(id);
}

LocalFile& LocalFileSystem::file(FileId id) {
  auto it = files_.find(id);
  assert(it != files_.end());
  return it->second;
}

const LocalFile& LocalFileSystem::file(FileId id) const {
  auto it = files_.find(id);
  assert(it != files_.end());
  return it->second;
}

FileId LocalFileSystem::lookup(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? kInvalidFile : it->second;
}

bool LocalFileSystem::ensure_allocated(LocalFile& f, std::int64_t size_bytes) {
  const std::int64_t need =
      (size_bytes + kSectorBytes - 1) / kSectorBytes;
  if (need <= f.allocated_sectors_) return true;
  std::int64_t grow = need - f.allocated_sectors_;
  // Extend the last extent in place when the allocator's frontier allows;
  // otherwise add a new extent.  (We just allocate a new extent and rely on
  // the frontier making it contiguous with the previous one, coalescing.)
  const std::int64_t lbn = alloc_.allocate(grow);
  if (lbn < 0) return false;
  if (!f.extents_.empty()) {
    Extent& last = f.extents_.back();
    if (last.lbn + last.sectors == lbn) {
      last.sectors += grow;
      f.allocated_sectors_ = need;
      return true;
    }
  }
  f.extents_.push_back({f.allocated_sectors_, lbn, grow});
  f.allocated_sectors_ = need;
  return true;
}

namespace {

/// Out of line, so the message formatting stays off the read path.
[[noreturn]] void throw_read_outside(const LocalFile& f, std::int64_t offset,
                                     std::int64_t length,
                                     std::int64_t allocated) {
  throw std::out_of_range(
      "fsim::LocalFileSystem::read: [" + std::to_string(offset) + ", +" +
      std::to_string(length) + ") is outside the " +
      std::to_string(allocated) + " allocated bytes of '" + f.name() + "'");
}

}  // namespace

sim::Task<sim::SimTime> LocalFileSystem::read(FileId id, std::int64_t offset,
                                              std::int64_t length,
                                              std::span<std::byte> out,
                                              int tag) {
  LocalFile& f = file(id);
  // Checked before read_allocated() starts: a throw inside the coroutine
  // would terminate the process instead of reaching the caller.
  const std::int64_t allocated = f.allocated_sectors_ * kSectorBytes;
  // offset + length > allocated, without the overflow.
  if (offset < 0 || length <= 0 || offset > allocated - length) {
    throw_read_outside(f, offset, length, allocated);
  }
  return read_allocated(f, id, offset, length, out, tag);
}

sim::Task<sim::SimTime> LocalFileSystem::read_allocated(
    LocalFile& f, FileId id, std::int64_t offset, std::int64_t length,
    std::span<std::byte> out, int tag) {
  const sim::SimTime t0 = sim_.now();
  auto pieces = map_pool_.acquire();
  f.map_into(offset, length, *pieces);
  auto futs = fut_pool_.acquire();
  futs->reserve(pieces->size());
  for (const auto& p : *pieces) {
    futs->push_back(
        dev_.submit({storage::IoDirection::kRead, p.lbn, p.sectors, tag}));
  }
  for (auto& fu : *futs) co_await fu;

  if (mode_ == DataMode::kVerify && !out.empty()) {
    assert(std::cmp_equal(out.size(), length));
    peek_bytes(id, offset, out);
  }
  co_return sim_.now() - t0;
}

sim::Task<sim::SimTime> LocalFileSystem::write(FileId id, std::int64_t offset,
                                               std::int64_t length,
                                               std::span<const std::byte> in,
                                               int tag) {
  LocalFile& f = file(id);
  const bool ok = ensure_allocated(f, offset + length);
  assert(ok && "device full");
  (void)ok;
  f.size_bytes_ = std::max(f.size_bytes_, offset + length);

  const sim::SimTime t0 = sim_.now();

  // Page-granularity read-modify-write: partially covered boundary pages
  // must be read in before the write can proceed.
  if (rmw_page_ > 0) {
    auto fills = fut_pool_.acquire();
    auto fill_pieces = map_pool_.acquire();
    const std::int64_t head = offset % rmw_page_;
    const std::int64_t tail = (offset + length) % rmw_page_;
    // The boundary pages may extend past the sector-rounded allocation.
    const bool ok2 = ensure_allocated(
        f, ((offset + length) / rmw_page_ + 1) * rmw_page_);
    assert(ok2 && "device full during RMW fill");
    (void)ok2;
    if (head != 0) {
      f.map_into(offset - head, rmw_page_, *fill_pieces);
      for (const auto& p : *fill_pieces) {
        fills->push_back(
            dev_.submit({storage::IoDirection::kRead, p.lbn, p.sectors, tag}));
      }
    }
    if (tail != 0 && (head == 0 || length > rmw_page_ - head)) {
      f.map_into(((offset + length) / rmw_page_) * rmw_page_, rmw_page_,
                 *fill_pieces);
      for (const auto& p : *fill_pieces) {
        fills->push_back(
            dev_.submit({storage::IoDirection::kRead, p.lbn, p.sectors, tag}));
      }
    }
    for (auto& fu : *fills) co_await fu;
  }

  auto pieces = map_pool_.acquire();
  f.map_into(offset, length, *pieces);
  auto futs = fut_pool_.acquire();
  futs->reserve(pieces->size());
  for (const auto& p : *pieces) {
    futs->push_back(
        dev_.submit({storage::IoDirection::kWrite, p.lbn, p.sectors, tag}));
  }
  for (auto& fu : *futs) co_await fu;

  if (mode_ == DataMode::kVerify && !in.empty()) {
    assert(std::cmp_equal(in.size(), length));
    poke_bytes(id, offset, in);
  }
  co_return sim_.now() - t0;
}

void LocalFileSystem::poke_bytes(FileId id, std::int64_t offset,
                                 std::span<const std::byte> in) {
  if (mode_ != DataMode::kVerify) return;
  auto& chunks = data_[id];
  std::int64_t pos = 0;
  while (pos < static_cast<std::int64_t>(in.size())) {
    const std::int64_t abs = offset + pos;
    const std::int64_t ci = abs / kChunk;
    const std::int64_t co = abs % kChunk;
    const std::int64_t n =
        std::min<std::int64_t>(kChunk - co, static_cast<std::int64_t>(in.size()) - pos);
    auto& chunk = chunks[ci];
    if (chunk.empty()) chunk.assign(kChunk, std::byte{0});
    std::memcpy(chunk.data() + co, in.data() + pos, static_cast<std::size_t>(n));
    pos += n;
  }
}

void LocalFileSystem::peek_bytes(FileId id, std::int64_t offset,
                                 std::span<std::byte> out) const {
  if (mode_ != DataMode::kVerify) return;
  auto fit = data_.find(id);
  std::int64_t pos = 0;
  while (pos < static_cast<std::int64_t>(out.size())) {
    const std::int64_t abs = offset + pos;
    const std::int64_t ci = abs / kChunk;
    const std::int64_t co = abs % kChunk;
    const std::int64_t n = std::min<std::int64_t>(
        kChunk - co, static_cast<std::int64_t>(out.size()) - pos);
    const std::vector<std::byte>* chunk = nullptr;
    if (fit != data_.end()) {
      auto cit = fit->second.find(ci);
      if (cit != fit->second.end()) chunk = &cit->second;
    }
    if (chunk) {
      std::memcpy(out.data() + pos, chunk->data() + co,
                  static_cast<std::size_t>(n));
    } else {
      std::memset(out.data() + pos, 0, static_cast<std::size_t>(n));
    }
    pos += n;
  }
}

}  // namespace ibridge::fsim
