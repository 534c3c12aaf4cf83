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

std::uint64_t FileSystem::max_size(const Inode& inode) {
  return inode.layout == FileLayout::kContiguous ? inode.contig_capacity
                                                 : kMaxFileSize;
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
      if (!addr.is_zero()) (void)client_->unreserve(addr);
    }
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
// File I/O
// ---------------------------------------------------------------------------

Result<Bytes> FileSystem::read_data(const Inode& n, std::uint64_t offset,
                                    std::uint64_t len) {
  if (n.size > max_size(n)) return ErrorCode::kCorrupt;
  if (offset >= n.size || len == 0) return Bytes{};
  len = std::min(len, n.size - offset);
  if (n.layout == FileLayout::kContiguous) {
    // Single lock over the touched range of the one data region.
    return client_->get({n.contig.plus(offset), len});
  }
  const auto first = static_cast<std::uint32_t>(offset / kBlockSize);
  const auto last = static_cast<std::uint32_t>((offset + len - 1) / kBlockSize);
  auto map = block_map(n, first, last - first + 1);
  if (!map) return map.error();
  std::vector<AddressRange> ranges;
  std::vector<std::uint64_t> at;  // where each range lands in the output
  for (std::uint64_t done = 0; done < len;) {
    const std::uint64_t pos = offset + done;
    const std::uint64_t in_block = pos % kBlockSize;
    const std::uint64_t chunk =
        std::min<std::uint64_t>(len - done, kBlockSize - in_block);
    const GlobalAddress& block = map.value()[pos / kBlockSize - first];
    if (!block.is_zero()) {
      ranges.push_back({block.plus(in_block), chunk});
      at.push_back(done);
    }
    done += chunk;
  }
  Bytes out(len);  // holes read as zeros
  if (ranges.empty()) return out;
  // One batch: every block is held at once, and writers put all of theirs
  // in one batch too, so the read never mixes two writes.
  auto data = client_->get_many(std::move(ranges));
  if (!data) return data.error();
  for (std::size_t i = 0; i < at.size(); ++i) {
    std::copy(data.value()[i].begin(), data.value()[i].end(),
              out.begin() + static_cast<long>(at[i]));
  }
  return out;
}

Status FileSystem::file_write(const GlobalAddress& inode_addr,
                              std::uint64_t offset,
                              std::span<const std::uint8_t> data,
                              bool exact_size) {
  // The inode write lock serializes concurrent writers (and namespace
  // operations) across all nodes; Khazana's CREW protocol does the actual
  // work.
  auto ictx = client_->lock({inode_addr, kBlockSize}, LockMode::kWrite);
  if (!ictx) return ictx.error();
  const Status s = write_locked(ictx.value(), offset, data, exact_size);
  client_->unlock(ictx.value());
  return s;
}

Status FileSystem::write_locked(const LockContext& ictx, std::uint64_t offset,
                                std::span<const std::uint8_t> data,
                                bool exact_size) {
  auto raw = client_->read(ictx, 0, kBlockSize);
  if (!raw) return raw.error();
  Decoder d(raw.value());
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
  Encoder e;
  inode.encode(e);
  Bytes img = std::move(e).take();
  img.resize(kBlockSize, 0);
  if (img == raw.value()) return {};  // an overwrite: nothing moved
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

// ---------------------------------------------------------------------------
// Directory content
// ---------------------------------------------------------------------------

Result<std::vector<DirEntry>> FileSystem::read_dir(
    const GlobalAddress& dir_inode) {
  auto inode = load_inode(dir_inode);
  if (!inode) return inode.error();
  return dir_entries(inode.value());
}

Result<std::vector<DirEntry>> FileSystem::dir_entries(const Inode& dir) {
  if (dir.type != FileType::kDirectory) return ErrorCode::kBadArgument;
  auto raw = read_data(dir, 0, dir.size);
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
  // The recorded size becomes the image's, so a directory that lost
  // entries shrinks.
  return file_write(dir_inode, 0, e.data(), /*exact_size=*/true);
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
    auto entries = dir_entries(n);
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
  auto inode = load_inode(fh.inode);
  if (!inode) return inode.error();
  return read_data(inode.value(), offset, len);
}

Status FileSystem::write(const FileHandle& fh, std::uint64_t offset,
                         std::span<const std::uint8_t> data) {
  if (fh.type != FileType::kFile) return ErrorCode::kBadArgument;
  return file_write(fh.inode, offset, data, /*exact_size=*/false);
}

Status FileSystem::truncate(const FileHandle& fh, std::uint64_t new_size) {
  auto inode = load_inode(fh.inode);
  if (!inode) return inode.error();
  Inode n = inode.value();
  if (new_size > max_size(n)) return ErrorCode::kNoSpace;
  if (new_size < n.size) {
    const auto first_dead = static_cast<std::uint32_t>(
        (new_size + kBlockSize - 1) / kBlockSize);
    const Status s = free_block_range(n, first_dead);
    if (!s.ok()) return s;
  }
  n.size = new_size;
  return store_inode(fh.inode, n);
}

}  // namespace khz::kfs
