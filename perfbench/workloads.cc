#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace khzbench {
namespace {

using khz::AddressRange;
using khz::Bytes;
using khz::GlobalAddress;
using khz::core::TcpClient;
using khz::core::TcpWorld;

constexpr std::uint64_t kInitWriter = 0xFF;
constexpr std::uint64_t kSeqMask = (1ull << 40) - 1;
/// Ops per thread stream; the closed loop wraps around it.
constexpr std::size_t kStreamLen = 1u << 16;

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() { return mix64(s_ += 0x9e3779b97f4a7c15ull); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

std::uint64_t stamp_of(std::uint64_t object, std::uint64_t tag,
                       std::uint64_t seq) {
  return (object << 48) | ((tag & 0xFF) << 40) | (seq & kSeqMask);
}
std::uint64_t stamp_object(std::uint64_t s) { return s >> 48; }
std::uint64_t stamp_tag(std::uint64_t s) { return (s >> 40) & 0xFF; }
std::uint64_t stamp_seq(std::uint64_t s) { return s & kSeqMask; }

/// Word 0 is the stamp; word i > 0 is mix64(stamp) ^ i, so a block mixing
/// two writes, or shifted within the page, fails read_stamped().
void fill_stamped(std::uint8_t* p, std::size_t len, std::uint64_t stamp) {
  const std::uint64_t body = mix64(stamp);
  for (std::size_t i = 0; i * 8 < len; ++i) {
    const std::uint64_t w = i == 0 ? stamp : body ^ i;
    std::memcpy(p + 8 * i, &w, 8);
  }
}

/// The block's stamp when every word agrees with it.
std::optional<std::uint64_t> read_stamped(const std::uint8_t* p,
                                          std::size_t len) {
  if (len < 8 || len % 8 != 0) return std::nullopt;
  std::uint64_t stamp = 0;
  std::memcpy(&stamp, p, 8);
  const std::uint64_t body = mix64(stamp);
  for (std::size_t i = 1; i * 8 < len; ++i) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + 8 * i, 8);
    if (w != (body ^ i)) return std::nullopt;
  }
  return stamp;
}

/// One thread's pre-generated inputs: the key of each op and whether it
/// writes. The program only ever sees these keys (and the paths they name).
struct Stream {
  std::vector<std::uint32_t> key;
  std::vector<std::uint8_t> write;
};

/// Zipf(s) over `n` keys (s == 0: uniform), with ranks mapped to keys by a
/// seeded permutation so the hot keys are not the first regions created.
/// The permutation (rank -> key) is stored in `rank_key` when given.
std::vector<Stream> make_streams(std::uint64_t seed, std::size_t n, double s,
                                 double write_share,
                                 std::vector<std::uint32_t>* rank_key = nullptr) {
  Rng rng(seed);
  std::vector<std::uint32_t> perm(n);
  for (std::size_t i = 0; i < n; ++i) perm[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = n - 1; i > 0; --i) {
    std::swap(perm[i], perm[rng.below(i + 1)]);
  }
  std::vector<double> cdf(n);
  double total = 0;
  for (std::size_t k = 0; k < n; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), s);
    cdf[k] = total;
  }
  std::vector<Stream> out(kThreads);
  for (auto& st : out) {
    st.key.resize(kStreamLen);
    st.write.resize(kStreamLen);
    for (std::size_t i = 0; i < kStreamLen; ++i) {
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf.begin(), cdf.end(), rng.unit() * total) -
          cdf.begin());
      st.key[i] = perm[std::min(rank, n - 1)];
      st.write[i] = rng.unit() < write_share ? 1 : 0;
    }
  }
  if (rank_key != nullptr) *rank_key = std::move(perm);
  return out;
}

/// Next op of `w`'s stream.
struct Pick {
  std::uint32_t key;
  bool write;
};
Pick next_pick(const std::vector<Stream>& streams, Worker& w) {
  const Stream& st = streams[w.thread()];
  const std::size_t i = w.cursor++ % kStreamLen;
  return {st.key[i], st.write[i] != 0};
}

void note_error(Worker& w, const char* what, std::uint32_t key,
                khz::ErrorCode e) {
  if (!w.first_error.empty()) return;
  char buf[160];
  std::snprintf(buf, sizeof(buf), "thread %u: %s on key %u (%s)", w.thread(),
                what, key, std::string(khz::to_string(e)).c_str());
  w.first_error = buf;
}

/// Creates `n` one-page regions from node 0, each filled with stamp(i).
template <typename StampFn>
bool create_pages(TcpWorld& world, std::size_t n, StampFn stamp,
                  std::vector<GlobalAddress>& out, std::string& err) {
  TcpClient c(world, 0);
  out.clear();
  Bytes page(kPageBytes);
  for (std::size_t i = 0; i < n; ++i) {
    auto base = c.create_region(kPageBytes);
    if (!base) {
      err = "create_region failed: " + std::string(khz::to_string(base.error()));
      return false;
    }
    fill_stamped(page.data(), page.size(), stamp(i));
    const khz::Status s = c.put({base.value(), kPageBytes}, page);
    if (!s.ok()) {
      err = "initial put failed: " + std::string(khz::to_string(s.error()));
      return false;
    }
    out.push_back(base.value());
  }
  return true;
}

// ---------------------------------------------------------------------------

class HotRead final : public Workload {
 public:
  static constexpr std::size_t kRegions = 512;

  explicit HotRead(std::uint64_t seed)
      : streams_(make_streams(seed, kRegions, 0.99, 0.0)),
        fill_tag_(mix64(seed) & kSeqMask) {}

  void configure(khz::core::TcpWorldOptions& o) const override {
    o.disk_root.clear();
  }
  bool load(TcpWorld& world, std::string& err) override {
    return create_pages(
        world, kRegions,
        [this](std::size_t i) { return stamp_of(i, kInitWriter, fill_tag_); },
        regions_, err);
  }
  /// The two threads of a node split the regions, so each client node
  /// ends up holding a replica of every region.
  bool warm(Worker& w, std::string& err) override {
    for (std::size_t i = w.thread() / 2; i < kRegions; i += 2) {
      if (get_checked(w, static_cast<std::uint32_t>(i)) != Outcome::kOk) {
        err = "warm-up read failed: " + w.first_error;
        return false;
      }
    }
    return true;
  }
  Outcome op(Worker& w) override {
    return get_checked(w, next_pick(streams_, w).key);
  }

 private:
  Outcome get_checked(Worker& w, std::uint32_t key) {
    auto r = w.client().get({regions_[key], kPageBytes});
    if (!r) {
      note_error(w, "get", key, r.error());
      return Outcome::kFailed;
    }
    const Bytes& b = r.value();
    const auto stamp = read_stamped(b.data(), b.size());
    if (b.size() != kPageBytes || !stamp ||
        *stamp != stamp_of(key, kInitWriter, fill_tag_)) {
      note_error(w, "get returned bytes other than the fill", key,
                 khz::ErrorCode::kCorrupt);
      return Outcome::kWrong;
    }
    return Outcome::kOk;
  }

  std::vector<Stream> streams_;
  std::uint64_t fill_tag_;
  std::vector<GlobalAddress> regions_;
};

// ---------------------------------------------------------------------------

class ContendedWrite final : public Workload {
 public:
  static constexpr std::size_t kRegions = 64;
  static constexpr std::uint64_t kWarmOps = 250;  // per thread

  explicit ContendedWrite(std::uint64_t seed)
      : streams_(make_streams(seed, kRegions, 0.0, 0.5)) {}

  void configure(khz::core::TcpWorldOptions& o) const override {
    o.disk_root.clear();
  }
  bool load(TcpWorld& world, std::string& err) override {
    for (auto& s : stamped_) s.store(0);
    return create_pages(
        world, kRegions,
        [](std::size_t i) { return stamp_of(i, kInitWriter, 0); }, regions_,
        err);
  }
  bool warm(Worker& w, std::string& err) override {
    for (std::uint64_t i = 0; i < kWarmOps; ++i) {
      if (op(w) != Outcome::kOk) {
        err = "warm-up op failed: " + w.first_error;
        return false;
      }
    }
    return true;
  }
  /// Puts stamp (key, writer, seq) with a fresh seq; gets must return an
  /// untorn page whose stamp names this key and a seq its writer stamped.
  Outcome op(Worker& w) override {
    const Pick p = next_pick(streams_, w);
    const AddressRange range{regions_[p.key], kPageBytes};
    if (p.write) {
      const std::uint64_t seq = stamped_[w.thread()].load() + 1;
      stamped_[w.thread()].store(seq);  // published before the write lands
      Bytes page(kPageBytes);
      fill_stamped(page.data(), page.size(), stamp_of(p.key, w.thread(), seq));
      const khz::Status s = w.client().put(range, page);
      if (!s.ok()) {
        note_error(w, "put", p.key, s.error());
        return Outcome::kFailed;
      }
      w.user_bytes += kPageBytes;
      return Outcome::kOk;
    }
    auto r = w.client().get(range);
    if (!r) {
      note_error(w, "get", p.key, r.error());
      return Outcome::kFailed;
    }
    const Bytes& b = r.value();
    const auto stamp = read_stamped(b.data(), b.size());
    bool valid = b.size() == kPageBytes && stamp &&
                 stamp_object(*stamp) == p.key;
    if (valid) {
      const std::uint64_t writer = stamp_tag(*stamp);
      const std::uint64_t seq = stamp_seq(*stamp);
      valid = writer == kInitWriter
                  ? seq == 0
                  : writer < kThreads && seq >= 1 &&
                        seq <= stamped_[writer].load();
    }
    if (!valid) {
      note_error(w, "get returned a torn or never-written page", p.key,
                 khz::ErrorCode::kCorrupt);
      return Outcome::kWrong;
    }
    return Outcome::kOk;
  }

 private:
  std::vector<Stream> streams_;
  std::vector<GlobalAddress> regions_;
  std::array<std::atomic<std::uint64_t>, kThreads> stamped_{};
};

// ---------------------------------------------------------------------------

class KfsWebcache final : public Workload {
 public:
  static constexpr std::size_t kDirs = 16;
  static constexpr std::size_t kFilesPerDir = 32;
  static constexpr std::size_t kFiles = kDirs * kFilesPerDir;
  static constexpr std::uint64_t kWarmOps = 400;  // per thread
  /// A read that returns blocks of different versions (KFS locks block by
  /// block, so it can interleave with an overwrite) is repeated, as a
  /// cache server would, until it sees one whole-file write.
  static constexpr int kMaxReads = 16;

  /// The seed places files in the popularity order and draws the ops. A
  /// file's size goes with its popularity rank and is the same for every
  /// seed: with Zipf(0.9) the few hottest files take a large share of the
  /// reads, so seeded sizes made the work per op differ from seed to seed.
  explicit KfsWebcache(std::uint64_t seed)
      : stamped_(std::make_unique<std::atomic<std::uint64_t>[]>(kFiles)),
        sizes_(kFiles) {
    std::vector<std::uint32_t> rank_file;
    streams_ = make_streams(seed, kFiles, 0.9, 0.1, &rank_file);
    Rng rng(0x6b6673ull);
    for (std::size_t r = 0; r < kFiles; ++r) {
      // 4..16 KiB in whole 8-byte words.
      sizes_[rank_file[r]] = 4096 + 8 * rng.below((16384 - 4096) / 8 + 1);
    }
    for (std::size_t f = 0; f < kFiles; ++f) {
      char path[32];
      std::snprintf(path, sizeof(path), "/d%02zu/f%02zu", f / kFilesPerDir,
                    f % kFilesPerDir);
      paths_.emplace_back(path);
    }
  }

  /// Group commit without fdatasync: commits hand pages and journal
  /// records to the kernel, which writes them back in its own time. A real
  /// fdatasync waits on the host's disk, which other tenants share, and
  /// made this workload's figures follow their I/O rather than the code.
  void configure(khz::core::TcpWorldOptions& o) const override {
    o.ram_pages = 1024;
    o.sync_metadata = false;
    o.group_commit_us = 1000;
  }
  std::string flush_policy() const override {
    return "group commit every 1 ms, sync_metadata=off (no fdatasync)";
  }
  std::uint64_t live_bytes() const override {
    std::uint64_t n = 0;
    for (auto s : sizes_) n += s;
    return n;
  }

  bool load(TcpWorld& world, std::string& err) override {
    for (std::size_t f = 0; f < kFiles; ++f) stamped_[f].store(0);
    TcpClient c(world, 0);
    auto sb = khz::kfs::FileSystem::mkfs(c);
    if (!sb) return fail(err, "mkfs", sb.error());
    superblock_ = sb.value();
    auto fs = khz::kfs::FileSystem::mount(c, superblock_);
    if (!fs) return fail(err, "mount", fs.error());
    for (std::size_t d = 0; d < kDirs; ++d) {
      char dir[16];
      std::snprintf(dir, sizeof(dir), "/d%02zu", d);
      const khz::Status s = fs.value().mkdir(dir);
      if (!s.ok()) return fail(err, "mkdir", s.error());
    }
    Bytes buf;
    for (std::size_t f = 0; f < kFiles; ++f) {
      auto fh = fs.value().create(paths_[f]);
      if (!fh) return fail(err, "create", fh.error());
      fill_file(f, 0, buf);
      const khz::Status s = fs.value().write(fh.value(), 0, buf);
      if (!s.ok()) return fail(err, "initial write", s.error());
    }
    return true;
  }

  bool warm(Worker& w, std::string& err) override {
    auto plain = khz::kfs::FileSystem::mount(w.tcp, superblock_);
    auto timed = khz::kfs::FileSystem::mount(w.timed, superblock_);
    if (!plain || !timed) {
      return fail(err, "mount", plain ? timed.error() : plain.error());
    }
    w.fs_plain.emplace(std::move(plain).value());
    w.fs_timed.emplace(std::move(timed).value());
    for (std::uint64_t i = 0; i < kWarmOps; ++i) {
      if (op(w) != Outcome::kOk) {
        err = "warm-up op failed: " + w.first_error;
        return false;
      }
    }
    return true;
  }

  Outcome op(Worker& w) override {
    const Pick p = next_pick(streams_, w);
    ThreadTrace* tr = w.trace_or_null();
    khz::kfs::FileSystem& fs = w.traced ? *w.fs_timed : *w.fs_plain;
    auto fh = kfs_span(tr, "kfs.open", [&] { return fs.open(paths_[p.key]); });
    if (!fh) {
      note_error(w, "open", p.key, fh.error());
      return Outcome::kFailed;
    }
    if (p.write) {
      const std::uint64_t version = stamped_[p.key].fetch_add(1) + 1;
      fill_file(p.key, version, w_buf_[w.thread()]);
      const khz::Status s = kfs_span(tr, "kfs.write", [&] {
        return fs.write(fh.value(), 0, w_buf_[w.thread()]);
      });
      if (!s.ok()) {
        note_error(w, "overwrite", p.key, s.error());
        return Outcome::kFailed;
      }
      w.user_bytes += sizes_[p.key];
      return Outcome::kOk;
    }
    for (int attempt = 0; attempt < kMaxReads; ++attempt) {
      auto r = kfs_span(tr, "kfs.read", [&] {
        return fs.read(fh.value(), 0, sizes_[p.key]);
      });
      if (!r) {
        note_error(w, "read", p.key, r.error());
        return Outcome::kFailed;
      }
      switch (check_file(p.key, r.value())) {
        case Check::kWhole:
          return Outcome::kOk;
        case Check::kMixed:
          ++w.rereads;
          continue;
        case Check::kBad:
          note_error(w, "read returned bytes no write produced", p.key,
                     khz::ErrorCode::kCorrupt);
          return Outcome::kWrong;
      }
    }
    note_error(w, "read never saw a whole-file version", p.key,
               khz::ErrorCode::kConflict);
    return Outcome::kWrong;
  }

  bool final_check(TcpWorld& world, std::string& err) override {
    TcpClient c(world, 1);
    auto fs = khz::kfs::FileSystem::mount(c, superblock_);
    if (!fs) return fail(err, "fsck mount", fs.error());
    auto rep = fs.value().fsck();
    if (!rep) return fail(err, "fsck", rep.error());
    const auto& r = rep.value();
    if (!r.clean() || r.files != kFiles || r.bytes != live_bytes()) {
      err = "fsck: " + std::to_string(r.errors.size()) + " errors, " +
            std::to_string(r.files) + " files, " + std::to_string(r.bytes) +
            " bytes" + (r.errors.empty() ? "" : "; first: " + r.errors[0]);
      return false;
    }
    return true;
  }

 private:
  enum class Check : std::uint8_t { kWhole, kMixed, kBad };

  static bool fail(std::string& err, const char* what, khz::ErrorCode e) {
    err = std::string(what) + " failed: " + std::string(khz::to_string(e));
    return false;
  }

  /// Block b of version v of file f is stamped (f, b, v).
  void fill_file(std::size_t f, std::uint64_t version, Bytes& buf) const {
    buf.resize(sizes_[f]);
    for (std::size_t off = 0, b = 0; off < buf.size();
         off += kPageBytes, ++b) {
      fill_stamped(buf.data() + off, std::min(kPageBytes, buf.size() - off),
                   stamp_of(f, b, version));
    }
  }

  /// Every block must be an untorn block of this file at a version some
  /// writer stamped; the read is whole when all blocks share one version.
  Check check_file(std::size_t f, const Bytes& data) const {
    if (data.size() != sizes_[f]) return Check::kBad;
    const std::uint64_t newest = stamped_[f].load();
    std::optional<std::uint64_t> version;
    bool mixed = false;
    for (std::size_t off = 0, b = 0; off < data.size();
         off += kPageBytes, ++b) {
      const auto s = read_stamped(data.data() + off,
                                  std::min(kPageBytes, data.size() - off));
      if (!s || stamp_object(*s) != f || stamp_tag(*s) != b ||
          stamp_seq(*s) > newest) {
        return Check::kBad;
      }
      if (version && *version != stamp_seq(*s)) mixed = true;
      version = stamp_seq(*s);
    }
    return mixed ? Check::kMixed : Check::kWhole;
  }

  std::vector<Stream> streams_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> stamped_;
  std::vector<std::string> paths_;
  std::vector<std::uint64_t> sizes_;
  GlobalAddress superblock_;
  std::array<Bytes, kThreads> w_buf_;  // per-thread write buffers
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "hot-read") return std::make_unique<HotRead>(seed);
  if (name == "contended-write") return std::make_unique<ContendedWrite>(seed);
  if (name == "kfs-webcache") return std::make_unique<KfsWebcache>(seed);
  return nullptr;
}

}  // namespace khzbench
