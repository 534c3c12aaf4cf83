#include "storage/segment_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>

#include "common/log.h"

namespace khz::storage {

namespace {

constexpr std::uint32_t kMagic = 0x4B5A5347;  // "KZSG"
constexpr std::uint8_t kKindPut = 1;
constexpr std::uint8_t kKindTombstone = 2;
// magic + kind + addr.hi + addr.lo + len + checksum.
constexpr std::uint64_t kHeaderBytes = 4 + 1 + 8 + 8 + 4 + 4;
// Pages are small; anything larger in a length field is torn-tail garbage.
constexpr std::uint32_t kMaxPayloadBytes = 64u << 20;

std::uint64_t now_us() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::uint32_t fnv1a(const std::uint8_t* data, std::size_t n) {
  std::uint32_t h = 2166136261u;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= 16777619u;
  }
  return h;
}

bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ::ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

SegmentStore::SegmentStore(std::filesystem::path dir, SegmentConfig cfg)
    : dir_(std::move(dir)), cfg_(cfg) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // Rebuild the index: scan every segment in ascending id order so later
  // records win (newest state), as they would have at append time.
  std::vector<std::uint64_t> ids;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file() || entry.path().extension() != ".seg") {
      continue;
    }
    try {
      ids.push_back(std::stoull(entry.path().stem().string(), nullptr, 16));
    } catch (const std::exception&) {
      // Not a segment file; leave it alone.
    }
  }
  std::sort(ids.begin(), ids.end());
  for (std::uint64_t id : ids) {
    const std::uint64_t intact = scan_segment(id);
    if (intact < segments_[id].size) {
      // Torn tail: a crash cut an append short. Drop the garbage so new
      // appends start from the last intact record.
      KHZ_WARN("segment %s: truncating torn tail at %llu (was %llu)",
               seg_path(id).c_str(), static_cast<unsigned long long>(intact),
               static_cast<unsigned long long>(segments_[id].size));
      std::filesystem::resize_file(seg_path(id), intact, ec);
      segments_[id].size = intact;
    }
  }
  open_head(ids.empty() ? 0 : ids.back());
  update_gauge();
}

SegmentStore::~SegmentStore() {
  for (auto& [id, seg] : segments_) {
    if (seg.read_fd >= 0) ::close(seg.read_fd);
  }
  for (int fd : unsynced_fds_) ::close(fd);
  if (head_fd_ >= 0) ::close(head_fd_);
}

std::filesystem::path SegmentStore::seg_path(std::uint64_t id) const {
  char name[32];
  std::snprintf(name, sizeof(name), "%016llx.seg",
                static_cast<unsigned long long>(id));
  return dir_ / name;
}

void SegmentStore::open_head(std::uint64_t id) {
  head_ = id;
  segments_.try_emplace(id);  // a fresh segment gets its entry
  head_fd_ = ::open(seg_path(id).c_str(),
                    O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (head_fd_ < 0) {
    KHZ_ERROR("segment: cannot open %s for append", seg_path(id).c_str());
  }
}

void SegmentStore::rotate() {
  if (head_fd_ >= 0) {
    if (head_dirty_) {
      // The rotated-away file still holds uncommitted records; keep its fd
      // so the next commit can fdatasync it.
      unsynced_fds_.push_back(head_fd_);
    } else {
      ::close(head_fd_);
    }
  }
  open_head(head_ + 1);
  update_gauge();
}

Status SegmentStore::append(std::span<const Record> records) {
  if (records.empty()) return {};
  if (segments_[head_].size >= cfg_.segment_bytes) rotate();
  if (head_fd_ < 0) return ErrorCode::kInternal;
  std::size_t frame_bytes = 0;
  for (const auto& [addr, data] : records) {
    frame_bytes += kHeaderBytes + (data ? data->size() : 0);
  }
  Bytes frames;
  frames.reserve(frame_bytes);
  Encoder e(std::move(frames));
  for (const auto& [addr, data] : records) {
    e.u32(kMagic);
    e.u8(data ? kKindPut : kKindTombstone);
    e.u64(addr.hi);
    e.u64(addr.lo);
    e.u32(data ? static_cast<std::uint32_t>(data->size()) : 0);
    e.u32(data ? fnv1a(data->data(), data->size()) : fnv1a(nullptr, 0));
    if (data) e.raw(*data);
  }
  if (!write_all(head_fd_, e.data().data(), e.data().size())) {
    // A short write may have left part of a record in the file; nothing
    // more goes after it. Reopen's scan truncates the torn tail.
    KHZ_ERROR("segment: write to %s failed", seg_path(head_).c_str());
    rotate();
    return ErrorCode::kInternal;
  }
  auto& seg = segments_[head_];
  for (const auto& [addr, data] : records) {
    const std::uint32_t len =
        data ? static_cast<std::uint32_t>(data->size()) : 0;
    drop_index(addr);
    if (data) {
      index_[addr] = Locator{head_, seg.size + kHeaderBytes, len};
      seg.live_payload += len;
      ++pending_pages_;
    }
    seg.total_payload += len;
    seg.size += kHeaderBytes + len;
  }
  pending_bytes_ += frame_bytes;
  head_dirty_ = true;
  return {};
}

void SegmentStore::drop_index(const GlobalAddress& addr) {
  auto it = index_.find(addr);
  if (it == index_.end()) return;
  auto seg = segments_.find(it->second.seg);
  if (seg != segments_.end()) seg->second.live_payload -= it->second.len;
  index_.erase(it);
}

Status SegmentStore::put(const GlobalAddress& addr, const Bytes& data) {
  const Record record{addr, &data};
  return append({&record, 1});
}

Status SegmentStore::put_batch(std::vector<PageWrite> batch) {
  std::vector<Record> records;
  records.reserve(batch.size());
  for (const PageWrite& w : batch) records.emplace_back(w.addr, &w.data);
  return append(records);
}

bool SegmentStore::erase(const GlobalAddress& addr) {
  if (!index_.contains(addr)) return false;
  const Record tombstone{addr, nullptr};
  (void)append({&tombstone, 1});
  return true;
}

int SegmentStore::reader(std::uint64_t id) {
  auto it = segments_.find(id);
  if (it == segments_.end()) return -1;
  if (it->second.read_fd < 0) {
    it->second.read_fd =
        ::open(seg_path(id).c_str(), O_RDONLY | O_CLOEXEC);
  }
  return it->second.read_fd;
}

std::optional<Bytes> SegmentStore::get(const GlobalAddress& addr) {
  auto it = index_.find(addr);
  if (it == index_.end()) return std::nullopt;
  return read_payload(it->second);
}

std::optional<Bytes> SegmentStore::read_payload(const Locator& loc) {
  const int fd = reader(loc.seg);
  if (fd < 0) return std::nullopt;
  Bytes out(loc.len);
  std::size_t done = 0;
  while (done < out.size()) {
    const ::ssize_t r =
        ::pread(fd, out.data() + done, out.size() - done,
                static_cast<::off_t>(loc.offset + done));
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return std::nullopt;
    done += static_cast<std::size_t>(r);
  }
  return out;
}

std::vector<GlobalAddress> SegmentStore::scan() const {
  std::vector<GlobalAddress> out;
  out.reserve(index_.size());
  for (const auto& [addr, loc] : index_) out.push_back(addr);
  std::sort(out.begin(), out.end());
  return out;
}

Status SegmentStore::commit(bool sync) {
  if (!head_dirty_ && unsynced_fds_.empty()) return {};
  if (group_commit_pages_ && pending_pages_ > 0) {
    group_commit_pages_->record(pending_pages_);
  }
  Status status;
  if (sync) {
    const std::uint64_t t0 = now_us();
    for (int fd : unsynced_fds_) {
      if (::fdatasync(fd) != 0) status = ErrorCode::kInternal;
      ::close(fd);
    }
    unsynced_fds_.clear();
    if (head_dirty_ && head_fd_ >= 0 && ::fdatasync(head_fd_) != 0) {
      status = ErrorCode::kInternal;
    }
    if (fsync_us_) fsync_us_->record(now_us() - t0);
  } else {
    for (int fd : unsynced_fds_) ::close(fd);
    unsynced_fds_.clear();
  }
  head_dirty_ = false;
  pending_bytes_ = 0;
  pending_pages_ = 0;
  return status;
}

std::uint64_t SegmentStore::scan_segment(std::uint64_t id) {
  std::ifstream in(seg_path(id), std::ios::binary);
  Bytes raw;
  if (in) {
    in.seekg(0, std::ios::end);
    raw.resize(static_cast<std::size_t>(in.tellg()));
    in.seekg(0);
    in.read(reinterpret_cast<char*>(raw.data()),
            static_cast<std::streamsize>(raw.size()));
  }
  auto& seg = segments_[id];
  seg.size = raw.size();
  std::uint64_t pos = 0;
  while (pos + kHeaderBytes <= raw.size()) {
    Decoder d(std::span<const std::uint8_t>(raw).subspan(pos, kHeaderBytes));
    const std::uint32_t magic = d.u32();
    const std::uint8_t kind = d.u8();
    GlobalAddress addr;
    addr.hi = d.u64();
    addr.lo = d.u64();
    const std::uint32_t len = d.u32();
    const std::uint32_t sum = d.u32();
    if (magic != kMagic || len > kMaxPayloadBytes ||
        (kind != kKindPut && kind != kKindTombstone) ||
        pos + kHeaderBytes + len > raw.size() ||
        fnv1a(raw.data() + pos + kHeaderBytes, len) != sum) {
      break;  // torn or corrupt: everything from here on is garbage
    }
    drop_index(addr);
    if (kind == kKindPut) {
      index_[addr] = Locator{id, pos + kHeaderBytes, len};
      seg.live_payload += len;
    }
    seg.total_payload += len;
    pos += kHeaderBytes + len;
  }
  return pos;
}

std::size_t SegmentStore::compact(std::size_t max_pages, bool sync) {
  // Cold candidates: every non-head segment less than half live. A fully
  // dead segment (live == 0) qualifies trivially and is just unlinked.
  std::vector<std::uint64_t> cold;
  for (const auto& [id, seg] : segments_) {
    if (id == head_) continue;
    if (seg.live_payload * 2 < seg.total_payload || seg.total_payload == 0) {
      cold.push_back(id);
    }
  }
  if (cold.empty()) return 0;
  // Copy the survivors into the head segment, newest home for old data.
  std::size_t rewritten = 0;
  std::vector<std::uint64_t> completed;
  for (std::uint64_t id : cold) {
    std::vector<std::pair<GlobalAddress, Locator>> live;
    for (const auto& [addr, loc] : index_) {
      if (loc.seg == id) live.emplace_back(addr, loc);
    }
    // Work cap: after the pass's first segment, only take a segment whose
    // whole live set fits in the remaining budget — a half-rewritten
    // segment could not be unlinked, so partial work would be wasted. The
    // first is always taken, so a cold segment larger than the budget is
    // still reclaimed. Fully dead segments cost nothing.
    if (max_pages > 0 && !completed.empty() &&
        rewritten + live.size() > max_pages) {
      continue;
    }
    // Read the whole live set, then write it to the head with one
    // write(2). A segment that cannot be read or rewritten whole stays.
    std::vector<Bytes> copies;
    copies.reserve(live.size());  // keeps the records' payload pointers valid
    std::vector<Record> records;
    for (const auto& [addr, loc] : live) {
      auto data = read_payload(loc);
      if (!data) break;
      copies.push_back(std::move(*data));
      records.emplace_back(addr, &copies.back());
    }
    if (records.size() != live.size() || !append(records).ok()) continue;
    rewritten += records.size();
    completed.push_back(id);
  }
  // Commit the copies before unlinking their sources: a crash in between
  // must always leave at least one committed copy of every page.
  (void)commit(sync);
  std::error_code ec;
  for (std::uint64_t id : completed) {
    auto it = segments_.find(id);
    if (it == segments_.end() || id == head_) continue;
    if (it->second.read_fd >= 0) ::close(it->second.read_fd);
    std::filesystem::remove(seg_path(id), ec);
    segments_.erase(it);
  }
  if (compaction_pages_ && rewritten > 0) {
    compaction_pages_->inc(rewritten);
  }
  update_gauge();
  return rewritten;
}

SegmentStats SegmentStore::stats() const {
  SegmentStats s;
  s.segments = segments_.size();
  for (const auto& [id, seg] : segments_) {
    s.live_bytes += seg.live_payload;
    s.dead_bytes += seg.total_payload - seg.live_payload;
  }
  return s;
}

void SegmentStore::update_gauge() {
  if (segments_live_) {
    segments_live_->set(static_cast<std::int64_t>(segments_.size()));
  }
}

void SegmentStore::bind_metrics(obs::MetricsRegistry& m) {
  group_commit_pages_ = &m.histogram("storage.group_commit_pages");
  fsync_us_ = &m.histogram("storage.fsync_us");
  segments_live_ = &m.gauge("storage.segments_live");
  compaction_pages_ = &m.counter("storage.compaction_pages");
  update_gauge();
}

}  // namespace khz::storage
