#include "kfs/fs.h"

#include <algorithm>
#include <set>

namespace khz::kfs {

using consistency::LockContext;
using consistency::LockMode;
using core::RegionAttrs;

namespace {
constexpr std::uint32_t kSuperMagic = 0x4b465331;  // "KFS1"
constexpr std::uint32_t kInodeMagic = 0x4b494e31;  // "KIN1"

/// Metadata regions (superblock, inodes, directories) are strictly
/// consistent: namespace operations must serialize across nodes.
RegionAttrs meta_attrs() {
  RegionAttrs a;
  a.level = core::ConsistencyLevel::kStrict;
  a.protocol = consistency::ProtocolId::kCrew;
  return a;
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

Result<FileSystem::Inode> FileSystem::load_inode(const GlobalAddress& addr) {
  auto raw = client_->get({addr, kBlockSize});
  if (!raw) return raw.error();
  Decoder d(raw.value());
  auto inode = Inode::decode(d);
  if (!inode) return ErrorCode::kCorrupt;
  return *inode;
}

Status FileSystem::store_inode(const GlobalAddress& addr,
                               const Inode& inode) {
  Encoder e;
  inode.encode(e);
  Bytes img = std::move(e).take();
  img.resize(kBlockSize, 0);
  return client_->put({addr, kBlockSize}, img);
}

// ---------------------------------------------------------------------------
// Block mapping
// ---------------------------------------------------------------------------

Result<GlobalAddress> FileSystem::block_addr(const Inode& inode,
                                             std::uint32_t idx) {
  if (idx < kDirectBlocks) {
    if (idx >= inode.direct.size()) return GlobalAddress{};
    return inode.direct[idx];
  }
  const std::uint32_t ind = idx - kDirectBlocks;
  if (ind >= kIndirectEntries || inode.indirect.is_zero()) {
    return GlobalAddress{};
  }
  auto raw = client_->get({inode.indirect, kBlockSize});
  if (!raw) return raw.error();
  Decoder d(raw.value());
  for (std::uint32_t i = 0; i < ind; ++i) (void)d.addr();
  return d.addr();
}

Result<GlobalAddress> FileSystem::ensure_block(
    Inode& inode, const GlobalAddress& inode_addr, std::uint32_t idx) {
  (void)inode_addr;
  auto existing = block_addr(inode, idx);
  if (!existing) return existing;
  if (!existing.value().is_zero()) return existing;

  // Allocate a fresh 4 KiB block region with the file's own attributes
  // ("each block of the filesystem is allocated into a separate
  // 4-kilobyte region").
  auto attrs = client_->getattr(inode_addr);
  RegionAttrs block_attrs = attrs.ok() ? attrs.value() : meta_attrs();
  block_attrs.page_size = kDefaultPageSize;
  auto block = client_->create_region(kBlockSize, block_attrs);
  if (!block) return block;

  if (idx < kDirectBlocks) {
    if (inode.direct.size() <= idx) {
      inode.direct.resize(idx + 1, GlobalAddress{});
    }
    inode.direct[idx] = block.value();
    return block;
  }
  const std::uint32_t ind = idx - kDirectBlocks;
  if (ind >= kIndirectEntries) return ErrorCode::kNoSpace;
  if (inode.indirect.is_zero()) {
    auto indirect = client_->create_region(kBlockSize, meta_attrs());
    if (!indirect) return indirect;
    inode.indirect = indirect.value();
  }
  // Patch the indirect table in place.
  Encoder e;
  e.addr(block.value());
  const Status s =
      client_->put({inode.indirect.plus(ind * 16ull), e.data().size()},
                   e.data());
  if (!s.ok()) return s.error();
  return block;
}

Status FileSystem::free_block_range(Inode& inode, std::uint32_t first_idx) {
  const std::uint32_t have = static_cast<std::uint32_t>(
      inode.direct.size() +
      (inode.indirect.is_zero() ? 0 : kIndirectEntries));
  for (std::uint32_t idx = first_idx; idx < have; ++idx) {
    auto addr = block_addr(inode, idx);
    if (!addr.ok() || addr.value().is_zero()) continue;
    (void)client_->unreserve(addr.value());
  }
  if (first_idx < inode.direct.size()) {
    inode.direct.resize(first_idx);
  }
  if (first_idx <= kDirectBlocks && !inode.indirect.is_zero()) {
    (void)client_->unreserve(inode.indirect);
    inode.indirect = GlobalAddress{};
  }
  return {};
}

// ---------------------------------------------------------------------------
// File I/O under an already-held inode lock
// ---------------------------------------------------------------------------

Result<Bytes> FileSystem::file_read(const GlobalAddress& inode_addr,
                                    std::uint64_t offset, std::uint64_t len) {
  auto inode = load_inode(inode_addr);
  if (!inode) return inode.error();
  const Inode& n = inode.value();
  if (offset >= n.size) return Bytes{};
  len = std::min(len, n.size - offset);
  if (n.layout == FileLayout::kContiguous) return contig_read(n, offset, len);

  Bytes out(len);
  std::uint64_t done = 0;
  while (done < len) {
    const std::uint64_t pos = offset + done;
    const auto idx = static_cast<std::uint32_t>(pos / kBlockSize);
    const std::uint64_t in_block = pos % kBlockSize;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(len - done, kBlockSize - in_block);
    auto addr = block_addr(n, idx);
    if (!addr) return addr.error();
    if (addr.value().is_zero()) {
      // Hole: reads as zeros.
      std::fill_n(out.begin() + static_cast<long>(done), chunk, 0);
    } else {
      auto data = client_->get({addr.value().plus(in_block), chunk});
      if (!data) return data.error();
      std::copy(data.value().begin(), data.value().end(),
                out.begin() + static_cast<long>(done));
    }
    done += chunk;
  }
  return out;
}

Status FileSystem::file_write(const GlobalAddress& inode_addr,
                              std::uint64_t offset,
                              std::span<const std::uint8_t> data) {
  {
    auto inode = load_inode(inode_addr);
    if (!inode) return inode.error();
    if (inode.value().layout == FileLayout::kContiguous) {
      return contig_write(inode_addr, inode.value(), offset, data);
    }
  }
  if (offset + data.size() > kMaxFileSize) return ErrorCode::kNoSpace;
  // The inode write lock serializes concurrent writers (and namespace
  // operations) across all nodes; Khazana's CREW protocol does the actual
  // work.
  auto ictx = client_->lock({inode_addr, kBlockSize}, LockMode::kWrite);
  if (!ictx) return ictx.error();
  auto raw = client_->read(ictx.value(), 0, kBlockSize);
  if (!raw) {
    client_->unlock(ictx.value());
    return raw.error();
  }
  Decoder d(raw.value());
  auto decoded = Inode::decode(d);
  if (!decoded) {
    client_->unlock(ictx.value());
    return ErrorCode::kCorrupt;
  }
  Inode inode = *decoded;

  std::uint64_t done = 0;
  while (done < data.size()) {
    const std::uint64_t pos = offset + done;
    const auto idx = static_cast<std::uint32_t>(pos / kBlockSize);
    const std::uint64_t in_block = pos % kBlockSize;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(data.size() - done, kBlockSize - in_block);
    auto addr = ensure_block(inode, inode_addr, idx);
    if (!addr) {
      client_->unlock(ictx.value());
      return addr.error();
    }
    const Status ws = client_->put({addr.value().plus(in_block), chunk},
                                   data.subspan(done, chunk));
    if (!ws.ok()) {
      client_->unlock(ictx.value());
      return ws;
    }
    done += chunk;
  }

  inode.size = std::max(inode.size, offset + data.size());
  Encoder e;
  inode.encode(e);
  Bytes img = std::move(e).take();
  img.resize(kBlockSize, 0);
  const Status s = client_->write(ictx.value(), 0, img);
  client_->unlock(ictx.value());
  return s;
}

Result<Bytes> FileSystem::contig_read(const Inode& inode,
                                      std::uint64_t offset,
                                      std::uint64_t len) {
  // Single lock over the touched range of the one data region.
  return client_->get({inode.contig.plus(offset), len});
}

Status FileSystem::contig_write(const GlobalAddress& inode_addr, Inode inode,
                                std::uint64_t offset,
                                std::span<const std::uint8_t> data) {
  if (offset + data.size() > inode.contig_capacity) {
    // The paper notes this layout "would require the filesystem to resize
    // the region whenever the file size changes"; capacity is fixed here.
    return ErrorCode::kNoSpace;
  }
  const Status ws = client_->put({inode.contig.plus(offset), data.size()},
                                 data);
  if (!ws.ok()) return ws;
  if (offset + data.size() > inode.size) {
    inode.size = offset + data.size();
    return store_inode(inode_addr, inode);
  }
  return {};
}

// ---------------------------------------------------------------------------
// Directory content
// ---------------------------------------------------------------------------

Result<std::vector<DirEntry>> FileSystem::read_dir(
    const GlobalAddress& dir_inode) {
  auto inode = load_inode(dir_inode);
  if (!inode) return inode.error();
  if (inode.value().type != FileType::kDirectory) {
    return ErrorCode::kBadArgument;
  }
  auto raw = file_read(dir_inode, 0, inode.value().size);
  if (!raw) return raw.error();

  std::vector<DirEntry> entries;
  Decoder d(raw.value());
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

Status FileSystem::write_dir(const GlobalAddress& dir_inode,
                             const std::vector<DirEntry>& entries) {
  Encoder e;
  e.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& de : entries) {
    e.str(de.name);
    e.addr(de.inode);
    e.u8(static_cast<std::uint8_t>(de.type));
  }
  const Bytes img = e.data();

  // Rewrite contents, then shrink the recorded size if the directory got
  // smaller (file_write only ever grows it).
  const Status s = file_write(dir_inode, 0, img);
  if (!s.ok()) return s;
  auto ictx = client_->lock({dir_inode, kBlockSize}, LockMode::kWrite);
  if (!ictx) return ictx.error();
  auto raw = client_->read(ictx.value(), 0, kBlockSize);
  if (!raw) {
    client_->unlock(ictx.value());
    return raw.error();
  }
  Decoder d(raw.value());
  auto decoded = Inode::decode(d);
  if (!decoded) {
    client_->unlock(ictx.value());
    return ErrorCode::kCorrupt;
  }
  Inode inode = *decoded;
  inode.size = img.size();
  Encoder enc;
  inode.encode(enc);
  Bytes out = std::move(enc).take();
  out.resize(kBlockSize, 0);
  const Status ws = client_->write(ictx.value(), 0, out);
  client_->unlock(ictx.value());
  return ws;
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
  const Status s = store_inode(region.value(), inode);
  if (!s.ok()) return s.error();
  if (type == FileType::kDirectory) {
    const Status ds = write_dir(region.value(), {});
    if (!ds.ok()) return ds.error();
  }
  return region;
}

// ---------------------------------------------------------------------------
// Path resolution ("recursive descent of the filesystem directory tree")
// ---------------------------------------------------------------------------

Result<GlobalAddress> FileSystem::resolve(const std::string& path,
                                          bool want_parent,
                                          std::string* leaf) {
  auto parts = split_path(path);
  if (!parts) return parts.error();
  std::vector<std::string>& names = parts.value();
  if (want_parent) {
    if (names.empty()) return ErrorCode::kBadArgument;
    if (leaf != nullptr) *leaf = names.back();
    names.pop_back();
  }
  GlobalAddress cur = root_inode_;
  for (const auto& name : names) {
    auto entries = read_dir(cur);
    if (!entries) return entries.error();
    const auto it = std::find_if(
        entries.value().begin(), entries.value().end(),
        [&](const DirEntry& e) { return e.name == name; });
    if (it == entries.value().end()) return ErrorCode::kNotFound;
    if (it->type != FileType::kDirectory) return ErrorCode::kBadArgument;
    cur = it->inode;
  }
  return cur;
}

// ---------------------------------------------------------------------------
// Namespace operations
// ---------------------------------------------------------------------------

Status FileSystem::mkdir(const std::string& path) {
  std::string name;
  auto parent = resolve(path, /*want_parent=*/true, &name);
  if (!parent) return parent.error();
  auto entries = read_dir(parent.value());
  if (!entries) return entries.error();
  for (const auto& e : entries.value()) {
    if (e.name == name) return ErrorCode::kExists;
  }
  auto inode = alloc_inode(FileType::kDirectory, meta_attrs());
  if (!inode) return inode.error();
  entries.value().push_back({name, inode.value(), FileType::kDirectory});
  return write_dir(parent.value(), entries.value());
}

Result<FileHandle> FileSystem::create(const std::string& path,
                                      const FileOptions& opts) {
  std::string name;
  auto parent = resolve(path, /*want_parent=*/true, &name);
  if (!parent) return parent.error();
  auto entries = read_dir(parent.value());
  if (!entries) return entries.error();
  for (const auto& e : entries.value()) {
    if (e.name == name) return ErrorCode::kExists;
  }
  auto inode = alloc_inode(FileType::kFile, opts.attrs, &opts);
  if (!inode) return inode.error();
  entries.value().push_back({name, inode.value(), FileType::kFile});
  const Status s = write_dir(parent.value(), entries.value());
  if (!s.ok()) return s.error();
  return FileHandle{inode.value(), FileType::kFile};
}

Result<FileHandle> FileSystem::open(const std::string& path) {
  auto parts = split_path(path);
  if (!parts) return parts.error();
  if (parts.value().empty()) {
    return FileHandle{root_inode_, FileType::kDirectory};
  }
  std::string name;
  auto parent = resolve(path, /*want_parent=*/true, &name);
  if (!parent) return parent.error();
  auto entries = read_dir(parent.value());
  if (!entries) return entries.error();
  for (const auto& e : entries.value()) {
    if (e.name == name) return FileHandle{e.inode, e.type};
  }
  return ErrorCode::kNotFound;
}

Status FileSystem::unlink(const std::string& path) {
  std::string name;
  auto parent = resolve(path, /*want_parent=*/true, &name);
  if (!parent) return parent.error();
  auto entries = read_dir(parent.value());
  if (!entries) return entries.error();
  auto& list = entries.value();
  const auto it = std::find_if(list.begin(), list.end(), [&](const DirEntry& e) {
    return e.name == name;
  });
  if (it == list.end()) return ErrorCode::kNotFound;
  const DirEntry victim = *it;
  if (victim.type == FileType::kDirectory) {
    auto children = read_dir(victim.inode);
    if (!children) return children.error();
    if (!children.value().empty()) return ErrorCode::kExists;  // not empty
  }
  list.erase(it);
  const Status s = write_dir(parent.value(), list);
  if (!s.ok()) return s;

  // Release the file's storage: blocks first, then the inode region.
  auto inode = load_inode(victim.inode);
  if (inode) {
    Inode n = inode.value();
    (void)free_block_range(n, 0);
    if (n.layout == FileLayout::kContiguous && !n.contig.is_zero()) {
      (void)client_->unreserve(n.contig);
    }
  }
  (void)client_->unreserve(victim.inode);
  return {};
}

Status FileSystem::rename(const std::string& from, const std::string& to) {
  std::string from_name;
  auto from_parent = resolve(from, /*want_parent=*/true, &from_name);
  if (!from_parent) return from_parent.error();
  std::string to_name;
  auto to_parent = resolve(to, /*want_parent=*/true, &to_name);
  if (!to_parent) return to_parent.error();

  auto from_entries = read_dir(from_parent.value());
  if (!from_entries) return from_entries.error();
  auto& src = from_entries.value();
  const auto it = std::find_if(src.begin(), src.end(), [&](const DirEntry& e) {
    return e.name == from_name;
  });
  if (it == src.end()) return ErrorCode::kNotFound;
  DirEntry moving = *it;

  // Refuse to move a directory into itself or its own subtree (the
  // destination parent resolution would have traversed the moving inode).
  if (moving.type == FileType::kDirectory &&
      to_parent.value() == moving.inode) {
    return ErrorCode::kBadArgument;
  }

  if (from_parent.value() == to_parent.value()) {
    // Same-directory rename: one read-modify-write.
    for (const auto& e : src) {
      if (e.name == to_name) return ErrorCode::kExists;
    }
    it->name = to_name;
    return write_dir(from_parent.value(), src);
  }

  auto to_entries = read_dir(to_parent.value());
  if (!to_entries) return to_entries.error();
  auto& dst = to_entries.value();
  for (const auto& e : dst) {
    if (e.name == to_name) return ErrorCode::kExists;
  }
  // Insert at the destination first, then remove from the source: a crash
  // between the two leaves the file reachable (twice) rather than lost.
  moving.name = to_name;
  dst.push_back(moving);
  const Status s1 = write_dir(to_parent.value(), dst);
  if (!s1.ok()) return s1;
  src.erase(std::find_if(src.begin(), src.end(), [&](const DirEntry& e) {
    return e.name == from_name;
  }));
  return write_dir(from_parent.value(), src);
}

Result<std::vector<DirEntry>> FileSystem::readdir(const std::string& path) {
  auto dir = resolve(path, /*want_parent=*/false, nullptr);
  if (!dir) return dir.error();
  return read_dir(dir.value());
}

Result<Stat> FileSystem::stat(const std::string& path) {
  auto fh = open(path);
  if (!fh) return fh.error();
  auto inode = load_inode(fh.value().inode);
  if (!inode) return inode.error();
  Stat st;
  st.type = inode.value().type;
  st.size = inode.value().size;
  st.nlink = inode.value().nlink;
  st.inode = fh.value().inode;
  auto attrs = client_->getattr(fh.value().inode);
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
  auto inode = load_inode(inode_addr);
  if (!inode) {
    report.errors.push_back(path + ": unreadable or corrupt inode");
    return;
  }
  const Inode& n = inode.value();

  if (n.type == FileType::kDirectory) {
    ++report.directories;
    auto entries = read_dir(inode_addr);
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
  if (n.layout == FileLayout::kContiguous) {
    if (n.contig.is_zero() || n.size > n.contig_capacity) {
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
  for (std::uint32_t idx = 0; idx < needed_blocks; ++idx) {
    auto addr = block_addr(n, idx);
    if (!addr.ok()) {
      report.errors.push_back(path + ": unreadable block map");
      break;
    }
    if (addr.value().is_zero()) continue;  // hole
    ++report.blocks;
    if (!client_->get({addr.value(), 1}).ok()) {
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
  return file_read(fh.inode, offset, len);
}

Status FileSystem::write(const FileHandle& fh, std::uint64_t offset,
                         std::span<const std::uint8_t> data) {
  if (fh.type != FileType::kFile) return ErrorCode::kBadArgument;
  return file_write(fh.inode, offset, data);
}

Status FileSystem::truncate(const FileHandle& fh, std::uint64_t new_size) {
  auto inode = load_inode(fh.inode);
  if (!inode) return inode.error();
  Inode n = inode.value();
  if (new_size < n.size) {
    const auto first_dead = static_cast<std::uint32_t>(
        (new_size + kBlockSize - 1) / kBlockSize);
    (void)free_block_range(n, first_dead);
  }
  n.size = new_size;
  return store_inode(fh.inode, n);
}

}  // namespace khz::kfs
