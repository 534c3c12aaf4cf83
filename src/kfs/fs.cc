#include "kfs/fs.h"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace khz::kfs {

using consistency::LockContext;
using consistency::LockMode;
using core::RegionAttrs;

namespace {
constexpr std::uint32_t kSuperMagic = 0x4b465331;  // "KFS1"
constexpr std::uint32_t kInodeMagic = 0x4b494e31;  // "KIN1"
/// Batches a lookup may fetch that get it no closer to an answer than an
/// earlier batch did, before it gives up. Only concurrent changes to what
/// it reads cost any.
constexpr int kMaxStalls = 16;

/// Metadata regions (superblock, inodes, directories) are strictly
/// consistent: namespace operations must serialize across nodes.
RegionAttrs meta_attrs() {
  RegionAttrs a;
  a.level = core::ConsistencyLevel::kStrict;
  a.protocol = consistency::ProtocolId::kCrew;
  return a;
}

// Directory contents: a flat entry list in the directory's data.
Bytes encode_entries(const std::vector<DirEntry>& entries) {
  Encoder e;
  e.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& de : entries) {
    e.str(de.name);
    e.addr(de.inode);
    e.u8(static_cast<std::uint8_t>(de.type));
  }
  return std::move(e).take();
}

Result<std::vector<DirEntry>> decode_entries(
    std::span<const std::uint8_t> raw) {
  std::vector<DirEntry> entries;
  Decoder d(raw);
  const std::uint32_t count = d.u32();
  for (std::uint32_t i = 0; i < count && d.ok(); ++i) {
    DirEntry e;
    e.name = d.str();
    e.inode = d.addr();
    e.type = static_cast<FileType>(d.u8());
    entries.push_back(std::move(e));
  }
  if (!d.ok()) return ErrorCode::kCorrupt;
  return entries;
}

/// The bytes `m` holds for exactly `r`, if any.
const Bytes* find_range(const std::unordered_map<GlobalAddress, Bytes>& m,
                        const AddressRange& r) {
  const auto it = m.find(r.base);
  return it != m.end() && it->second.size() == r.size ? &it->second
                                                      : nullptr;
}
}  // namespace

Result<std::vector<std::string>> split_path(const std::string& path) {
  if (path.empty() || path.front() != '/') return ErrorCode::kBadArgument;
  std::vector<std::string> parts;
  std::size_t i = 1;
  while (i < path.size()) {
    const std::size_t next = path.find('/', i);
    const std::size_t end = next == std::string::npos ? path.size() : next;
    if (end > i) {
      const std::string name = path.substr(i, end - i);
      if (name.size() > kMaxNameLen) return ErrorCode::kBadArgument;
      if (name == "." || name == "..") return ErrorCode::kBadArgument;
      parts.push_back(name);
    }
    i = end + 1;
  }
  return parts;
}

// ---------------------------------------------------------------------------
// Inode image
// ---------------------------------------------------------------------------

void FileSystem::Inode::encode(Encoder& e) const {
  e.u32(kInodeMagic);
  e.u8(static_cast<std::uint8_t>(type));
  e.u8(static_cast<std::uint8_t>(layout));
  e.u64(size);
  e.u32(nlink);
  e.i64(mtime);
  e.u32(static_cast<std::uint32_t>(direct.size()));
  for (const auto& b : direct) e.addr(b);
  e.addr(indirect);
  e.addr(contig);
  e.u64(contig_capacity);
}

std::optional<FileSystem::Inode> FileSystem::Inode::decode(Decoder& d) {
  if (d.u32() != kInodeMagic) return std::nullopt;
  Inode n;
  n.type = static_cast<FileType>(d.u8());
  n.layout = static_cast<FileLayout>(d.u8());
  n.size = d.u64();
  n.nlink = d.u32();
  n.mtime = d.i64();
  const std::uint32_t nblocks = d.u32();
  if (nblocks > kDirectBlocks) return std::nullopt;
  n.direct.reserve(nblocks);
  for (std::uint32_t i = 0; i < nblocks && d.ok(); ++i) {
    n.direct.push_back(d.addr());
  }
  n.indirect = d.addr();
  n.contig = d.addr();
  n.contig_capacity = d.u64();
  if (!d.ok()) return std::nullopt;
  return n;
}

Bytes FileSystem::Inode::image() const {
  Encoder e;
  encode(e);
  Bytes img = std::move(e).take();
  img.resize(kBlockSize, 0);
  return img;
}

std::uint64_t FileSystem::max_size(const Inode& inode) {
  return inode.layout == FileLayout::kContiguous ? inode.contig_capacity
                                                 : kMaxFileSize;
}

// ---------------------------------------------------------------------------
// Lookups: every range a walk reads, in one validated batch
// ---------------------------------------------------------------------------

/// One lookup's reads. A walk reads each range through get(), either as an
/// inode image or as the data of an inode (its `owner`). In a guessing
/// pass get() answers from what is validated, then from the lookup's last
/// batch, then from the mount's cache, and with no bytes at all when none
/// holds the range; the ranges the pass read outside what is validated
/// make the next batch. In a checking pass get() answers from what is
/// validated and from the batch just fetched.
class FileSystem::Walk {
 public:
  explicit Walk(FileSystem& fs) : fs_(fs) {}

  /// The bytes of `range`, the data of `owner` (zero for an inode image);
  /// with `keep`, fetched bytes go to the mount's cache.
  std::span<const std::uint8_t> get(const AddressRange& range,
                                    const GlobalAddress& owner, bool keep);
  Result<Inode> inode(const GlobalAddress& addr);
  /// [offset, offset + len) of inode `n` at `at`, clipped to its size;
  /// holes read as zeros.
  Result<Bytes> data(const Inode& n, const GlobalAddress& at,
                     std::uint64_t offset, std::uint64_t len);
  Result<std::vector<DirEntry>> entries(const GlobalAddress& dir);

 private:
  friend class FileSystem;
  using RangeBytes = std::unordered_map<GlobalAddress, Bytes>;
  enum class Verdict : std::uint8_t { kAccept, kSegment, kRetry };
  struct Read {
    AddressRange range;
    GlobalAddress owner;
    std::size_t keep = 0;    // leading bytes that go to the cache
    bool validated = false;  // answered by validated bytes
    bool found = false;      // answered at all
    bool guessed = false;    // read after the pass read guessed bytes

    /// Data that may not share a batch with its inode: data below the
    /// inode (lock order), and file data, which goes in the round after
    /// its inode (docs/api.md, "KFS limitations").
    [[nodiscard]] bool apart() const {
      return !owner.is_zero() && (range.base < owner || keep == 0);
    }
  };

  void begin(bool checking) {
    checking_ = checking;
    unsure_ = false;
    reads_.clear();
  }
  std::vector<AddressRange> batch();
  Verdict verdict();
  /// Sends the checked pass's kept bytes to the mount's cache.
  void refresh();

  FileSystem& fs_;
  bool checking_ = false;
  bool use_cache_ = true;  // off once a batch has failed
  bool unsure_ = false;    // this pass has read guessed bytes
  bool guessed_ = false;   // the last batch held a guessed range
  std::size_t matched_ = 0;  // reads answered before the checking pass's miss
  RangeBytes pinned_;     // read under a lock the caller holds
  RangeBytes validated_;  // batches accepted as finished segments
  RangeBytes last_;       // earlier batches, the freshest guess
  RangeBytes fetched_;    // the batch being checked
  std::vector<Read> reads_;
};

std::span<const std::uint8_t> FileSystem::Walk::get(
    const AddressRange& range, const GlobalAddress& owner, bool keep) {
  Read r{range, owner, keep ? range.size : 0};
  r.guessed = unsure_;
  const Bytes* b = find_range(pinned_, range);
  if (b == nullptr) b = find_range(validated_, range);
  r.validated = b != nullptr;
  if (b == nullptr && checking_) b = find_range(fetched_, range);
  if (b == nullptr && !checking_) {
    b = find_range(last_, range);
    if (b == nullptr && use_cache_) {
      const auto it = fs_.cache_.find(range.base);
      if (it != fs_.cache_.end() && it->second.size == range.size) {
        b = &it->second.bytes;
      }
    }
    unsure_ = unsure_ || b != nullptr;  // later reads follow a guess
  }
  r.found = b != nullptr;
  reads_.push_back(r);
  if (b == nullptr) return {};
  return *b;
}

Result<FileSystem::Inode> FileSystem::Walk::inode(const GlobalAddress& addr) {
  const auto raw = get({addr, kBlockSize}, {}, /*keep=*/false);
  Decoder d(raw);
  auto n = Inode::decode(d);
  if (!n) return ErrorCode::kCorrupt;
  reads_.back().keep = raw.size() - d.rest().size();  // the encoded image
  return *std::move(n);
}

Result<Bytes> FileSystem::Walk::data(const Inode& n, const GlobalAddress& at,
                                     std::uint64_t offset, std::uint64_t len) {
  if (n.size > max_size(n)) return ErrorCode::kCorrupt;
  if (offset >= n.size || len == 0) return Bytes{};
  len = std::min(len, n.size - offset);
  // Directory contents steer a walk and go to the cache; file data does
  // not.
  const bool keep = n.type == FileType::kDirectory;
  Bytes out(len);  // holes read as zeros
  const auto put = [&](std::uint64_t pos, std::span<const std::uint8_t> b) {
    std::copy_n(b.begin(), std::min<std::uint64_t>(b.size(), len - pos),
                out.begin() + static_cast<long>(pos));
  };
  if (n.layout == FileLayout::kContiguous) {
    put(0, get({n.contig.plus(offset), len}, at, keep));
    return out;
  }
  std::span<const std::uint8_t> table;  // the indirect entries, if needed
  if ((offset + len - 1) / kBlockSize >= kDirectBlocks &&
      !n.indirect.is_zero()) {
    table = get({n.indirect, kBlockSize}, at, /*keep=*/true);
  }
  for (std::uint64_t done = 0; done < len;) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t in_block = pos % kBlockSize;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(len - done, kBlockSize - in_block);
    const std::uint64_t idx = pos / kBlockSize;
    GlobalAddress block;
    if (idx < kDirectBlocks) {
      if (idx < n.direct.size()) block = n.direct[idx];
    } else if ((idx - kDirectBlocks + 1) * 16 <= table.size()) {
      Decoder d(table.subspan((idx - kDirectBlocks) * 16, 16));
      block = d.addr();
    }
    if (!block.is_zero()) {
      put(done, get({block.plus(in_block), chunk}, at, keep));
    }
    done += chunk;
  }
  return out;
}

Result<std::vector<DirEntry>> FileSystem::Walk::entries(
    const GlobalAddress& dir) {
  auto n = inode(dir);
  if (!n) return n.error();
  if (n.value().type != FileType::kDirectory) return ErrorCode::kBadArgument;
  auto raw = data(n.value(), dir, 0, n.value().size);
  if (!raw) return raw.error();
  return decode_entries(raw.value());
}

/// The ranges the guessing pass read outside what is validated, once each
/// and in the order read, up to the first that must be apart from an
/// inode the batch holds.
std::vector<AddressRange> FileSystem::Walk::batch() {
  std::vector<AddressRange> out;
  std::unordered_set<GlobalAddress> in;
  guessed_ = false;
  for (const Read& r : reads_) {
    if (r.validated || in.count(r.range.base) != 0) continue;
    if (r.apart() && in.count(r.owner) != 0) break;
    in.insert(r.range.base);
    out.push_back(r.range);
    guessed_ = guessed_ || r.guessed;
  }
  return out;
}

/// kAccept when the checking pass read exactly the batch. kSegment when it
/// read all of the batch and then needed data that must be apart from an
/// inode the batch holds, the cut batch() makes: the batch is kept as
/// validated and the walk goes on from it. kRetry otherwise.
FileSystem::Walk::Verdict FileSystem::Walk::verdict() {
  std::unordered_set<GlobalAddress> used;
  matched_ = 0;
  for (const Read& r : reads_) {
    if (!r.found) {
      const bool cut = r.apart() && fetched_.count(r.owner) != 0;
      return cut && used.size() == fetched_.size() ? Verdict::kSegment
                                                   : Verdict::kRetry;
    }
    ++matched_;
    if (!r.validated) used.insert(r.range.base);
  }
  return used.size() == fetched_.size() ? Verdict::kAccept : Verdict::kRetry;
}

void FileSystem::Walk::refresh() {
  for (const Read& r : reads_) {
    if (!r.found) break;
    if (r.validated || r.keep == 0) continue;
    const Bytes& b = fetched_.at(r.range.base);
    fs_.remember(r.range, std::span(b).first(std::min(r.keep, b.size())));
  }
}

Status FileSystem::run(Walk& w, const WalkFn& walk) {
  int stalls = 0;
  std::size_t best = 0;  // the most reads a checked batch answered
  for (;;) {
    w.begin(/*checking=*/false);
    (void)walk(w);
    std::vector<AddressRange> batch = w.batch();
    if (batch.empty()) {  // every read is validated
      w.begin(/*checking=*/true);
      return walk(w);
    }
    auto got = client_->get_many(batch);
    if (!got) {
      // A guess, or a segment validated earlier, can name a range freed
      // since: start over once, with no guess from the cache. A batch that
      // named only what the pinned bytes name fails for real.
      if ((!w.guessed_ && w.validated_.empty()) || !w.use_cache_) {
        return got.error();
      }
      w.validated_.clear();
      w.last_.clear();
      w.use_cache_ = false;
      best = 0;
      continue;
    }
    w.fetched_.clear();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      w.fetched_[batch[i].base] = std::move(got.value()[i]);
    }
    w.begin(/*checking=*/true);
    const Status s = walk(w);
    w.refresh();
    switch (w.verdict()) {
      case Walk::Verdict::kAccept:
        return s;
      case Walk::Verdict::kSegment:
        w.validated_.merge(w.fetched_);
        break;
      case Walk::Verdict::kRetry:
        if (w.matched_ <= best && ++stalls > kMaxStalls) {
          return ErrorCode::kConflict;
        }
        best = std::max(best, w.matched_);
        for (auto& [base, bytes] : w.fetched_) w.last_[base] = std::move(bytes);
        break;
    }
  }
}

Result<FileSystem::Found> FileSystem::lookup(const std::string& path,
                                             Want want, std::string* leaf) {
  auto parts = split_path(path);
  if (!parts) return parts.error();
  std::vector<std::string>& names = parts.value();
  if (leaf != nullptr) {
    if (names.empty()) return ErrorCode::kBadArgument;
    *leaf = names.back();
    names.pop_back();
  }
  Found found;
  Walk w(*this);
  const Status s = run(w, [&](Walk& w) -> Status {
    // "a recursive descent of the filesystem directory tree from the root"
    DirEntry cur{"", root_inode_, FileType::kDirectory};
    GlobalAddress parent;
    for (const auto& name : names) {
      if (cur.type != FileType::kDirectory) return ErrorCode::kBadArgument;
      auto entries = w.entries(cur.inode);
      if (!entries) return entries.error();
      const auto it = std::find_if(
          entries.value().begin(), entries.value().end(),
          [&](const DirEntry& e) { return e.name == name; });
      if (it == entries.value().end()) return ErrorCode::kNotFound;
      parent = cur.inode;
      cur = std::move(*it);
    }
    found.parent = parent;
    found.entry = cur;
    if (want == Want::kInode) {
      auto n = w.inode(cur.inode);
      if (!n) return n.error();
      found.inode = std::move(n).value();
    } else if (want == Want::kEntries && cur.type == FileType::kDirectory) {
      auto e = w.entries(cur.inode);
      if (!e) return e.error();
      found.entries = std::move(e).value();
    }
    return {};
  });
  if (!s.ok()) return s.error();
  if (leaf != nullptr && found.entry.type != FileType::kDirectory) {
    return ErrorCode::kBadArgument;
  }
  return found;
}

Result<FileSystem::Inode> FileSystem::load_inode(const GlobalAddress& addr) {
  Inode n;
  Walk w(*this);
  const Status s = run(w, [&](Walk& w) -> Status {
    auto r = w.inode(addr);
    if (!r) return r.error();
    n = std::move(r).value();
    return {};
  });
  if (!s.ok()) return s.error();
  return n;
}

void FileSystem::remember(const AddressRange& range,
                          std::span<const std::uint8_t> bytes) {
  auto it = cache_.find(range.base);
  if (it == cache_.end()) {
    if (cache_.size() >= kLookupCacheEntries) cache_.erase(cache_.begin());
    it = cache_.emplace(range.base, Cached{}).first;
  }
  it->second.size = range.size;
  it->second.bytes.assign(bytes.begin(), bytes.end());
}

void FileSystem::release(const GlobalAddress& base) {
  (void)client_->unreserve(base);
  cache_.erase(base);
}

// ---------------------------------------------------------------------------
// Block mapping
// ---------------------------------------------------------------------------

Result<std::vector<GlobalAddress>> FileSystem::block_map(
    const Inode& inode, std::uint32_t first, std::uint32_t count) {
  std::vector<GlobalAddress> table;  // the indirect entries, if needed
  if (first + count > kDirectBlocks && !inode.indirect.is_zero()) {
    auto raw = client_->get({inode.indirect, kBlockSize});
    if (!raw) return raw.error();
    Decoder d(raw.value());
    table.resize(kIndirectEntries);
    for (auto& a : table) a = d.addr();
  }
  std::vector<GlobalAddress> out(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::uint32_t idx = first + i;
    if (idx < kDirectBlocks) {
      if (idx < inode.direct.size()) out[i] = inode.direct[idx];
    } else if (idx - kDirectBlocks < table.size()) {
      out[i] = table[idx - kDirectBlocks];
    }
  }
  return out;
}

Result<GlobalAddress> FileSystem::add_block(Inode& inode, std::uint32_t idx,
                                            const RegionAttrs& attrs) {
  // "each block of the filesystem is allocated into a separate 4-kilobyte
  // region"
  if (idx >= kDirectBlocks + kIndirectEntries) return ErrorCode::kNoSpace;
  auto block = client_->create_region(kBlockSize, attrs);
  if (!block) return block;
  if (idx < kDirectBlocks) {
    if (inode.direct.size() <= idx) {
      inode.direct.resize(idx + 1, GlobalAddress{});
    }
    inode.direct[idx] = block.value();
    return block;
  }
  if (inode.indirect.is_zero()) {
    auto indirect = client_->create_region(kBlockSize, meta_attrs());
    if (!indirect) return indirect;
    inode.indirect = indirect.value();
  }
  // Patch the indirect table in place.
  Encoder e;
  e.addr(block.value());
  const std::uint64_t ind = idx - kDirectBlocks;
  const Status s = client_->put(
      {inode.indirect.plus(ind * 16ull), e.data().size()}, e.data());
  if (!s.ok()) return s.error();
  return block;
}

Status FileSystem::free_block_range(Inode& inode, std::uint32_t first_idx) {
  const std::uint32_t have = static_cast<std::uint32_t>(
      inode.direct.size() +
      (inode.indirect.is_zero() ? 0 : kIndirectEntries));
  if (first_idx < have) {
    auto map = block_map(inode, first_idx, have - first_idx);
    if (!map) return map.error();
    for (const GlobalAddress& addr : map.value()) {
      if (!addr.is_zero()) release(addr);
    }
  }
  if (first_idx < inode.direct.size()) {
    inode.direct.resize(first_idx);
  }
  if (first_idx <= kDirectBlocks && !inode.indirect.is_zero()) {
    release(inode.indirect);
    inode.indirect = GlobalAddress{};
  }
  return {};
}

void FileSystem::free_inode(const GlobalAddress& addr) {
  auto inode = load_inode(addr);
  if (inode) {
    Inode& n = inode.value();
    (void)free_block_range(n, 0);
    if (n.layout == FileLayout::kContiguous && !n.contig.is_zero()) {
      release(n.contig);
    }
  }
  release(addr);
}

// ---------------------------------------------------------------------------
// Writes, each under the inode's write lock
// ---------------------------------------------------------------------------

Status FileSystem::with_inode_locked(
    const GlobalAddress& addr, LockMode mode,
    const std::function<Status(const LockContext&, const Bytes&)>& body) {
  // The inode write lock serializes writers and namespace operations on
  // this inode across all nodes; Khazana's CREW protocol does the actual
  // work.
  auto ictx = client_->lock({addr, kBlockSize}, mode);
  if (!ictx) return ictx.error();
  auto raw = client_->read(ictx.value(), 0, kBlockSize);
  const Status s = raw ? body(ictx.value(), raw.value()) : Status(raw.error());
  client_->unlock(ictx.value());
  return s;
}

Status FileSystem::write_locked(const LockContext& ictx, const Bytes& raw,
                                std::uint64_t offset,
                                std::span<const std::uint8_t> data,
                                bool exact_size) {
  Decoder d(raw);
  auto decoded = Inode::decode(d);
  if (!decoded) return ErrorCode::kCorrupt;
  Inode inode = std::move(*decoded);
  const std::uint64_t cap = max_size(inode);
  if (offset > cap || data.size() > cap - offset) {
    // The paper notes the contiguous layout "would require the filesystem
    // to resize the region whenever the file size changes"; capacity is
    // fixed here.
    return ErrorCode::kNoSpace;
  }
  if (!data.empty()) {
    const Status ws =
        inode.layout == FileLayout::kContiguous
            ? client_->put({inode.contig.plus(offset), data.size()}, data)
            : write_blocks(inode, ictx.range.base, offset, data);
    if (!ws.ok()) return ws;
  }
  const std::uint64_t end = offset + data.size();
  inode.size = exact_size ? end : std::max(inode.size, end);
  return store_locked(ictx, raw, inode);
}

Status FileSystem::store_locked(const LockContext& ictx, const Bytes& raw,
                                const Inode& inode) {
  const Bytes img = inode.image();
  if (img == raw) return {};  // an overwrite: nothing moved
  return client_->write(ictx, 0, img);
}

Status FileSystem::write_blocks(Inode& inode, const GlobalAddress& inode_addr,
                                std::uint64_t offset,
                                std::span<const std::uint8_t> data) {
  const auto first = static_cast<std::uint32_t>(offset / kBlockSize);
  const auto last =
      static_cast<std::uint32_t>((offset + data.size() - 1) / kBlockSize);
  auto map = block_map(inode, first, last - first + 1);
  if (!map) return map.error();
  std::optional<RegionAttrs> attrs;  // fetched for the first new block
  for (std::uint32_t i = 0; i < map.value().size(); ++i) {
    if (!map.value()[i].is_zero()) continue;
    if (!attrs) {
      // New blocks take the file's own attributes.
      auto a = client_->getattr(inode_addr);
      attrs = a.ok() ? a.value() : meta_attrs();
      attrs->page_size = kDefaultPageSize;
    }
    auto block = add_block(inode, first + i, *attrs);
    if (!block) return block.error();
    map.value()[i] = block.value();
  }
  std::vector<core::RangeWrite> writes;
  for (std::uint64_t done = 0; done < data.size();) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t in_block = pos % kBlockSize;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(data.size() - done, kBlockSize - in_block);
    const auto bytes = data.subspan(done, chunk);
    writes.push_back({{map.value()[pos / kBlockSize - first].plus(in_block),
                       chunk},
                      Bytes(bytes.begin(), bytes.end())});
    done += chunk;
  }
  return client_->put_many(std::move(writes));
}

Status FileSystem::update_dir(
    const GlobalAddress& dir,
    const std::function<Status(std::vector<DirEntry>&)>& change) {
  return with_inode_locked(
      dir, LockMode::kWrite,
      [&](const LockContext& ictx, const Bytes& raw) -> Status {
        std::vector<DirEntry> entries;
        Walk w(*this);
        w.pinned_[dir] = raw;  // read under the lock: no batch refetches it
        const Status rs = run(w, [&](Walk& w) -> Status {
          auto e = w.entries(dir);
          if (!e) return e.error();
          entries = std::move(e).value();
          return {};
        });
        if (!rs.ok()) return rs;
        const Status cs = change(entries);
        if (!cs.ok()) return cs;
        // The recorded size becomes the image's, so a directory that lost
        // entries shrinks.
        return write_locked(ictx, raw, 0, encode_entries(entries),
                            /*exact_size=*/true);
      });
}

// ---------------------------------------------------------------------------
// mkfs / mount
// ---------------------------------------------------------------------------

Result<GlobalAddress> FileSystem::mkfs(core::SyncClient& client) {
  FileSystem fs(client, {}, {});
  auto root = fs.alloc_inode(FileType::kDirectory, meta_attrs());
  if (!root) return root;

  auto super = client.create_region(kBlockSize, meta_attrs());
  if (!super) return super;
  Encoder e;
  e.u32(kSuperMagic);
  e.addr(root.value());
  Bytes img = std::move(e).take();
  img.resize(kBlockSize, 0);
  const Status s = client.put({super.value(), kBlockSize}, img);
  if (!s.ok()) return s.error();
  return super;
}

Result<FileSystem> FileSystem::mount(core::SyncClient& client,
                                     const GlobalAddress& superblock) {
  auto raw = client.get({superblock, kBlockSize});
  if (!raw) return raw.error();
  Decoder d(raw.value());
  if (d.u32() != kSuperMagic) return ErrorCode::kCorrupt;
  const GlobalAddress root = d.addr();
  return FileSystem(client, superblock, root);
}

Result<GlobalAddress> FileSystem::alloc_inode(FileType type,
                                              const RegionAttrs& attrs,
                                              const FileOptions* opts) {
  core::RegionAttrs inode_attrs = attrs;
  inode_attrs.page_size = kDefaultPageSize;
  auto region = client_->create_region(kBlockSize, inode_attrs);
  if (!region) return region;
  Inode inode;
  inode.type = type;
  if (opts != nullptr && opts->layout == FileLayout::kContiguous) {
    inode.layout = FileLayout::kContiguous;
    inode.contig_capacity = (opts->contiguous_capacity + kBlockSize - 1) /
                            kBlockSize * kBlockSize;
    auto data_region =
        client_->create_region(inode.contig_capacity, inode_attrs);
    if (!data_region) return data_region;
    inode.contig = data_region.value();
  }
  const Status s = client_->put({region.value(), kBlockSize}, inode.image());
  if (!s.ok()) return s.error();
  if (type == FileType::kDirectory) {
    const Status ds = with_inode_locked(
        region.value(), LockMode::kWrite,
        [&](const LockContext& ictx, const Bytes& raw) {
          return write_locked(ictx, raw, 0, encode_entries({}),
                              /*exact_size=*/true);
        });
    if (!ds.ok()) return ds.error();
  }
  return region;
}

// ---------------------------------------------------------------------------
// Namespace operations
// ---------------------------------------------------------------------------

Result<FileHandle> FileSystem::add_entry(const std::string& path,
                                         FileType type,
                                         const RegionAttrs& attrs,
                                         const FileOptions* opts) {
  std::string name;
  auto parent = lookup(path, Want::kEntry, &name);
  if (!parent) return parent.error();
  auto inode = alloc_inode(type, attrs, opts);
  if (!inode) return inode.error();
  const Status s = update_dir(
      parent.value().entry.inode,
      [&](std::vector<DirEntry>& list) -> Status {
        for (const auto& e : list) {
          if (e.name == name) return ErrorCode::kExists;
        }
        list.push_back({name, inode.value(), type});
        return {};
      });
  if (!s.ok()) {
    free_inode(inode.value());
    return s.error();
  }
  return FileHandle{inode.value(), type};
}

Status FileSystem::mkdir(const std::string& path) {
  auto fh = add_entry(path, FileType::kDirectory, meta_attrs(), nullptr);
  return fh ? Status{} : Status(fh.error());
}

Result<FileHandle> FileSystem::create(const std::string& path,
                                      const FileOptions& opts) {
  return add_entry(path, FileType::kFile, opts.attrs, &opts);
}

Result<FileHandle> FileSystem::open(const std::string& path) {
  auto found = lookup(path, Want::kEntry);
  if (!found) return found.error();
  return FileHandle{found.value().entry.inode, found.value().entry.type};
}

Status FileSystem::unlink(const std::string& path) {
  auto found = lookup(path, Want::kEntries);
  if (!found) return found.error();
  const Found& f = found.value();
  if (f.parent.is_zero()) return ErrorCode::kBadArgument;  // "/"
  if (!f.entries.empty()) return ErrorCode::kExists;      // not empty
  const DirEntry& victim = f.entry;
  const Status s =
      update_dir(f.parent, [&](std::vector<DirEntry>& list) -> Status {
        const auto it =
            std::find_if(list.begin(), list.end(), [&](const DirEntry& e) {
              return e.name == victim.name && e.inode == victim.inode;
            });
        if (it == list.end()) return ErrorCode::kNotFound;
        list.erase(it);
        return {};
      });
  if (!s.ok()) return s;
  // Release the storage: blocks first, then the inode region.
  free_inode(victim.inode);
  return {};
}

Status FileSystem::rename(const std::string& from, const std::string& to) {
  auto src = lookup(from, Want::kEntry);
  if (!src) return src.error();
  if (src.value().parent.is_zero()) return ErrorCode::kBadArgument;  // "/"
  std::string to_name;
  auto dst = lookup(to, Want::kEntry, &to_name);
  if (!dst) return dst.error();
  const GlobalAddress from_dir = src.value().parent;
  const GlobalAddress to_dir = dst.value().entry.inode;
  const DirEntry moving = src.value().entry;

  // Refuse to move a directory into itself or its own subtree (the
  // destination parent resolution would have traversed the moving inode).
  if (moving.type == FileType::kDirectory && to_dir == moving.inode) {
    return ErrorCode::kBadArgument;
  }
  const auto named = [](std::vector<DirEntry>& list, const std::string& n) {
    return std::find_if(list.begin(), list.end(),
                        [&](const DirEntry& e) { return e.name == n; });
  };
  const auto find_moving = [&](std::vector<DirEntry>& list) {
    const auto it = named(list, moving.name);
    return it != list.end() && it->inode == moving.inode ? it : list.end();
  };

  if (from_dir == to_dir) {
    // Same-directory rename: one read-modify-write.
    return update_dir(from_dir, [&](std::vector<DirEntry>& list) -> Status {
      if (named(list, to_name) != list.end()) return ErrorCode::kExists;
      const auto it = find_moving(list);
      if (it == list.end()) return ErrorCode::kNotFound;
      it->name = to_name;
      return {};
    });
  }
  // Insert at the destination first, then remove from the source: a crash
  // between the two leaves the file reachable (twice) rather than lost.
  // Each update holds one directory's lock, never both.
  const Status s1 =
      update_dir(to_dir, [&](std::vector<DirEntry>& list) -> Status {
        if (named(list, to_name) != list.end()) return ErrorCode::kExists;
        list.push_back({to_name, moving.inode, moving.type});
        return {};
      });
  if (!s1.ok()) return s1;
  return update_dir(from_dir, [&](std::vector<DirEntry>& list) -> Status {
    const auto it = find_moving(list);
    if (it == list.end()) return ErrorCode::kNotFound;
    list.erase(it);
    return {};
  });
}

Result<std::vector<DirEntry>> FileSystem::readdir(const std::string& path) {
  auto found = lookup(path, Want::kEntries);
  if (!found) return found.error();
  if (found.value().entry.type != FileType::kDirectory) {
    return ErrorCode::kBadArgument;
  }
  return std::move(found.value().entries);
}

Result<Stat> FileSystem::stat(const std::string& path) {
  auto found = lookup(path, Want::kInode);
  if (!found) return found.error();
  const Found& f = found.value();
  Stat st;
  st.type = f.inode.type;
  st.size = f.inode.size;
  st.nlink = f.inode.nlink;
  st.inode = f.entry.inode;
  auto attrs = client_->getattr(f.entry.inode);
  if (attrs) st.attrs = attrs.value();
  return st;
}

// ---------------------------------------------------------------------------
// fsck
// ---------------------------------------------------------------------------

void FileSystem::fsck_walk(const GlobalAddress& inode_addr,
                           const std::string& path, FsckReport& report,
                           int depth) {
  if (depth > 64) {
    report.errors.push_back(path + ": directory nesting too deep (cycle?)");
    return;
  }
  Inode n;
  Result<std::vector<DirEntry>> entries{std::vector<DirEntry>{}};
  Walk w(*this);
  const Status s = run(w, [&](Walk& w) -> Status {
    auto inode = w.inode(inode_addr);
    if (!inode) return inode.error();
    n = std::move(inode).value();
    if (n.type == FileType::kDirectory) entries = w.entries(inode_addr);
    return {};
  });
  if (!s.ok()) {
    report.errors.push_back(path + ": unreadable or corrupt inode");
    return;
  }

  if (n.type == FileType::kDirectory) {
    ++report.directories;
    if (!entries) {
      report.errors.push_back(path + ": undecodable directory contents");
      return;
    }
    std::set<std::string> seen;
    for (const auto& e : entries.value()) {
      if (e.name.empty() || e.name.size() > kMaxNameLen) {
        report.errors.push_back(path + ": bad entry name");
        continue;
      }
      if (!seen.insert(e.name).second) {
        report.errors.push_back(path + "/" + e.name + ": duplicate entry");
        continue;
      }
      fsck_walk(e.inode, path + "/" + e.name, report, depth + 1);
    }
    return;
  }

  ++report.files;
  report.bytes += n.size;
  if (n.size > max_size(n)) {
    report.errors.push_back(path + ": size " + std::to_string(n.size) +
                            " exceeds the layout's maximum " +
                            std::to_string(max_size(n)));
    return;
  }
  if (n.layout == FileLayout::kContiguous) {
    if (n.contig.is_zero()) {
      report.errors.push_back(path + ": bad contiguous extent");
    } else {
      report.blocks += (n.size + kBlockSize - 1) / kBlockSize;
      // The data region must be reachable.
      if (!client_->get({n.contig, 1}).ok()) {
        report.errors.push_back(path + ": contiguous data unreachable");
      }
    }
    return;
  }
  const auto needed_blocks =
      static_cast<std::uint32_t>((n.size + kBlockSize - 1) / kBlockSize);
  auto map = block_map(n, 0, needed_blocks);
  if (!map) {
    report.errors.push_back(path + ": unreadable block map");
    return;
  }
  for (std::uint32_t idx = 0; idx < needed_blocks; ++idx) {
    const GlobalAddress& addr = map.value()[idx];
    if (addr.is_zero()) continue;  // hole
    ++report.blocks;
    if (!client_->get({addr, 1}).ok()) {
      report.errors.push_back(path + ": block " + std::to_string(idx) +
                              " unreachable");
    }
  }
}

Result<FileSystem::FsckReport> FileSystem::fsck() {
  FsckReport report;
  fsck_walk(root_inode_, "", report, 0);
  // The root itself was counted as a directory; sanity-check the
  // superblock too.
  auto raw = client_->get({superblock_, kBlockSize});
  if (!raw) {
    report.errors.push_back("superblock unreachable");
  } else {
    Decoder d(raw.value());
    if (d.u32() != kSuperMagic) {
      report.errors.push_back("superblock magic mismatch");
    }
  }
  return report;
}

// ---------------------------------------------------------------------------
// Public file I/O
// ---------------------------------------------------------------------------

Result<Bytes> FileSystem::read(const FileHandle& fh, std::uint64_t offset,
                               std::uint64_t len) {
  // Two rounds: the inode (with its indirect table), then every block it
  // names in one batch.
  Bytes out;
  const WalkFn walk = [&](Walk& w) -> Status {
    auto n = w.inode(fh.inode);
    if (!n) return n.error();
    auto data = w.data(n.value(), fh.inode, offset, len);
    if (!data) return data.error();
    out = std::move(data).value();
    return {};
  };
  Walk w(*this);
  if (run(w, walk).ok()) return out;
  // A racing truncate freed the blocks the inode named, or the file kept
  // changing: read under the inode's read lock, where the image names the
  // blocks exactly and no truncate can free them. A writer takes the same
  // locks in the same order (inode, then blocks).
  const Status s = with_inode_locked(
      fh.inode, LockMode::kRead, [&](const LockContext&, const Bytes& raw) {
        Walk locked(*this);
        locked.pinned_[fh.inode] = raw;
        return run(locked, walk);
      });
  if (!s.ok()) return s.error();
  return out;
}

Status FileSystem::write(const FileHandle& fh, std::uint64_t offset,
                         std::span<const std::uint8_t> data) {
  if (fh.type != FileType::kFile) return ErrorCode::kBadArgument;
  return with_inode_locked(
      fh.inode, LockMode::kWrite,
      [&](const LockContext& ictx, const Bytes& raw) {
        return write_locked(ictx, raw, offset, data, /*exact_size=*/false);
      });
}

Status FileSystem::truncate(const FileHandle& fh, std::uint64_t new_size) {
  // Under the inode's write lock, like write(): a write never lands in
  // blocks this frees.
  return with_inode_locked(
      fh.inode, LockMode::kWrite,
      [&](const LockContext& ictx, const Bytes& raw) -> Status {
        Decoder d(raw);
        auto n = Inode::decode(d);
        if (!n) return ErrorCode::kCorrupt;
        if (new_size > max_size(*n)) return ErrorCode::kNoSpace;
        if (new_size < n->size) {
          const auto first_dead = static_cast<std::uint32_t>(
              (new_size + kBlockSize - 1) / kBlockSize);
          const Status s = free_block_range(*n, first_dead);
          if (!s.ok()) return s;
        }
        n->size = new_size;
        return store_locked(ictx, raw, *n);
      });
}

}  // namespace khz::kfs
