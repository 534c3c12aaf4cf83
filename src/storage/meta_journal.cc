#include "storage/meta_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <fstream>

#include "common/log.h"
#include "storage/segment_store.h"

namespace khz::storage {

namespace {

// Records are small (a descriptor, an address + version); anything huge is
// torn-tail garbage, not data.
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;
constexpr std::size_t kFrameHeaderBytes = 8;  // length + checksum

}  // namespace

MetaJournal::MetaJournal(std::filesystem::path path) : path_(std::move(path)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    KHZ_ERROR("journal: cannot open %s for append", path_.c_str());
  }
}

MetaJournal::~MetaJournal() {
  if (fd_ >= 0) ::close(fd_);
}

Status MetaJournal::append(const Bytes& record) {
  if (fd_ < 0) return ErrorCode::kInternal;
  Bytes frame;
  frame.reserve(kFrameHeaderBytes + record.size());
  Encoder e(std::move(frame));
  e.u32(static_cast<std::uint32_t>(record.size()));
  e.u32(fnv1a(record.data(), record.size()));
  e.raw(record);
  if (!write_all(fd_, e.data().data(), e.data().size())) {
    return ErrorCode::kInternal;
  }
  dirty_ = true;
  ++appended_;
  return {};
}

Status MetaJournal::sync() {
  if (!dirty_) return {};
  if (::fdatasync(fd_) != 0) return ErrorCode::kInternal;
  dirty_ = false;
  return {};
}

std::size_t MetaJournal::replay(
    const std::function<void(const Bytes&)>& cb) const {
  std::ifstream in(path_, std::ios::binary | std::ios::ate);
  if (!in) return 0;
  Bytes raw(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(raw.data()),
          static_cast<std::streamsize>(raw.size()));
  std::size_t n = 0;
  std::size_t pos = 0;
  while (pos + kFrameHeaderBytes <= raw.size()) {
    Decoder d(std::span<const std::uint8_t>(raw).subspan(pos,
                                                         kFrameHeaderBytes));
    const std::uint32_t len = d.u32();
    const std::uint32_t sum = d.u32();
    // A torn tail (the append was cut short by a crash) or a corrupt
    // record ends the replay.
    if (len > kMaxRecordBytes || pos + kFrameHeaderBytes + len > raw.size()) {
      break;
    }
    const std::uint8_t* payload = raw.data() + pos + kFrameHeaderBytes;
    if (fnv1a(payload, len) != sum) break;
    cb(Bytes(payload, payload + len));
    pos += kFrameHeaderBytes + len;
    ++n;
  }
  return n;
}

Status MetaJournal::reset() {
  appended_ = 0;
  dirty_ = false;
  return fd_ >= 0 && ::ftruncate(fd_, 0) == 0 ? Status{}
                                               : Status{ErrorCode::kInternal};
}

}  // namespace khz::storage
