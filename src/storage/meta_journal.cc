#include "storage/meta_journal.h"

#include <fcntl.h>
#include <unistd.h>

#include "common/log.h"

namespace khz::storage {

namespace {

// Records are small (a descriptor, an address + version); anything huge is
// torn-tail garbage, not data.
constexpr std::uint32_t kMaxRecordBytes = 64u << 20;

std::uint32_t fnv1a(const Bytes& data) {
  std::uint32_t h = 2166136261u;
  for (std::uint8_t b : data) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

void put_u32(std::ofstream& out, std::uint32_t v) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out.write(buf, 4);
}

bool read_u32(std::ifstream& in, std::uint32_t& v) {
  char buf[4];
  in.read(buf, 4);
  if (!in) return false;
  v = static_cast<std::uint8_t>(buf[0]) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf[1])) << 8) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf[2])) << 16) |
      (static_cast<std::uint32_t>(static_cast<std::uint8_t>(buf[3])) << 24);
  return true;
}

}  // namespace

MetaJournal::MetaJournal(std::filesystem::path path) : path_(std::move(path)) {
  out_.open(path_, std::ios::binary | std::ios::app);
  if (!out_) {
    KHZ_ERROR("journal: cannot open %s for append", path_.c_str());
  }
}

MetaJournal::~MetaJournal() {
  if (sync_fd_ >= 0) ::close(sync_fd_);
}

bool MetaJournal::sync_now() {
  if (sync_fd_ < 0) {
    // Same inode as out_: appends stay on the stream (buffered framing),
    // durability goes through this descriptor. The journal file is only
    // ever truncated in place (reset()), never replaced, so the fd stays
    // valid across compactions.
    sync_fd_ = ::open(path_.c_str(), O_WRONLY | O_CLOEXEC);
    if (sync_fd_ < 0) {
      KHZ_ERROR("journal: cannot open %s for fdatasync", path_.c_str());
      return false;
    }
  }
  return ::fdatasync(sync_fd_) == 0;
}

Status MetaJournal::append(const Bytes& record) {
  if (!out_) return ErrorCode::kInternal;
  put_u32(out_, static_cast<std::uint32_t>(record.size()));
  put_u32(out_, fnv1a(record));
  out_.write(reinterpret_cast<const char*>(record.data()),
             static_cast<std::streamsize>(record.size()));
  out_.flush();
  if (!out_) return ErrorCode::kInternal;
  if (sync_on_commit_) {
    if (group_commit_) {
      dirty_ = true;  // the next sync() covers this record
    } else if (!sync_now()) {
      return ErrorCode::kInternal;
    }
  }
  ++appended_;
  return {};
}

Status MetaJournal::sync() {
  if (!sync_on_commit_ || !dirty_) return {};
  dirty_ = false;
  return sync_now() ? Status{} : Status{ErrorCode::kInternal};
}

std::size_t MetaJournal::replay(
    const std::function<void(const Bytes&)>& cb) const {
  std::ifstream in(path_, std::ios::binary);
  if (!in) return 0;
  std::size_t n = 0;
  for (;;) {
    std::uint32_t len = 0;
    std::uint32_t sum = 0;
    if (!read_u32(in, len) || !read_u32(in, sum)) break;
    if (len > kMaxRecordBytes) break;
    Bytes payload(len);
    in.read(reinterpret_cast<char*>(payload.data()),
            static_cast<std::streamsize>(len));
    if (!in) break;  // torn tail: the append was cut short by a crash
    if (fnv1a(payload) != sum) break;
    cb(payload);
    ++n;
  }
  return n;
}

Status MetaJournal::reset() {
  out_.close();
  out_.open(path_, std::ios::binary | std::ios::trunc);
  const bool ok = static_cast<bool>(out_);
  out_.close();
  out_.open(path_, std::ios::binary | std::ios::app);
  appended_ = 0;
  dirty_ = false;
  return ok && out_ ? Status{} : Status{ErrorCode::kInternal};
}

}  // namespace khz::storage
