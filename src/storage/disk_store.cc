#include "storage/disk_store.h"

#include <fcntl.h>
#include <unistd.h>

#include <fstream>

#include "common/log.h"

namespace khz::storage {

namespace fs = std::filesystem;

namespace {

/// fsyncs the file or directory at `path`, opened with `flags`.
bool sync_path(const fs::path& path, int flags) {
  const int fd = ::open(path.c_str(), flags | O_CLOEXEC);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

DiskStore::DiskStore(fs::path root, std::size_t capacity_pages)
    : root_(std::move(root)), capacity_(capacity_pages) {
  std::error_code ec;
  fs::create_directories(root_, ec);
  if (ec) {
    KHZ_ERROR("disk: cannot create %s: %s", root_.c_str(),
              ec.message().c_str());
  }
  segments_ = std::make_unique<SegmentStore>(root_ / "segments");
  journal_ = std::make_unique<MetaJournal>(root_ / "meta.journal");
}

Status DiskStore::put(const GlobalAddress& page, const Bytes& data) {
  if (!segments_->contains(page) && full()) return ErrorCode::kNoSpace;
  return segments_->put(page, data);
}

Status DiskStore::put_batch(std::vector<PageWrite> batch) {
  if (capacity_ != 0) {
    std::size_t fresh = 0;
    for (const PageWrite& w : batch) {
      if (!segments_->contains(w.addr)) ++fresh;
    }
    if (segments_->live_pages() + fresh > capacity_) {
      return ErrorCode::kNoSpace;
    }
  }
  return segments_->put_batch(std::move(batch));
}

std::optional<Bytes> DiskStore::get(const GlobalAddress& page) const {
  return segments_->get(page);
}

bool DiskStore::erase(const GlobalAddress& page) {
  return segments_->erase(page);
}

bool DiskStore::contains(const GlobalAddress& page) const {
  return segments_->contains(page);
}

std::vector<GlobalAddress> DiskStore::scan() const {
  return segments_->scan();
}

Status DiskStore::commit() {
  // Segments before the journal: a journal record synced ahead of the page
  // bytes it names would replay a version that power loss took away.
  if (Status s = segments_->commit(sync_on_commit_); !s.ok()) return s;
  return sync_on_commit_ ? journal_->sync() : Status{};
}

Status DiskStore::maybe_commit() {
  // Under group commit the owner's timer drains the batch; without it,
  // sync-on-commit is the per-write fdatasync baseline.
  if (!group_commit_ && sync_on_commit_) return commit();
  return {};
}

Status DiskStore::put_meta(const std::string& name, const Bytes& data) {
  const fs::path path = root_ / (name + ".meta");
  const fs::path tmp = root_ / (name + ".meta.tmp");
  bool ok = false;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size()));
    out.close();
    ok = !out.fail();
  }
  // Meta blobs are checkpoint snapshots: they must hit the platter before
  // the journal they supersede is truncated.
  if (ok && sync_on_commit_) ok = sync_path(tmp, O_WRONLY);
  std::error_code ec;
  if (ok) fs::rename(tmp, path, ec);
  if (!ok || ec) {
    fs::remove(tmp, ec);
    return ErrorCode::kInternal;
  }
  // The rename is durable only once the directory entry is.
  if (sync_on_commit_ && !sync_path(root_, O_RDONLY | O_DIRECTORY)) {
    return ErrorCode::kInternal;
  }
  return {};
}

std::optional<Bytes> DiskStore::get_meta(const std::string& name) const {
  std::ifstream in(root_ / (name + ".meta"), std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const auto size = in.tellg();
  in.seekg(0);
  Bytes data(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(data.data()), size);
  if (!in) return std::nullopt;
  return data;
}

}  // namespace khz::storage
