// KFS: a wide-area distributed filesystem on Khazana (paper, Section 4.1).
//
// "The filesystem treats the entire Khazana space as a single disk... At
// the time of file system creation, the creator allocates a superblock and
// an inode for the root of the filesystem. Mounting this filesystem only
// requires the Khazana address of the superblock. Creating a file involves
// the creation of an inode and directory entry for the file. Each inode is
// allocated as a region of its own. ... In the current implementation,
// each block of the filesystem is allocated into a separate 4-kilobyte
// region. ... Opening a file is as simple as finding the inode address for
// the file by a recursive descent of the filesystem directory tree from
// the root and caching that address."
//
// The filesystem contains no distribution logic of its own: multiple
// FileSystem instances mounted on different nodes share all state through
// Khazana — consistency, replication and location are entirely Khazana's
// business. Per-file attributes (replica count, consistency level, access
// modes) map directly onto the region attributes of the file's inode and
// block regions, exactly as the paper's "parameters specified at file
// creation time" describe.
//
// Lookups in one validated batch. A mount remembers, up to
// kLookupCacheEntries ranges, the inode images (with their indirect
// tables) and directory entries it last fetched. The cache is a guess,
// never an answer: a path lookup (open, stat, readdir, and the parent
// walk of every namespace operation) runs its walk from the root over
// the cached bytes to guess every inode and data range it will read, and
// fetches them all in one get_many. It accepts the answer only if
// re-walking the fetched bytes asks for exactly the ranges that were
// fetched; otherwise it refreshes the cache from the fetched bytes and
// tries again, and a batch that fails is retried once with no guess from
// the cache. A warm lookup is one visit; a cold one costs the per-level
// visits an uncached descent costs.
//
// A read is two rounds: the inode (with its indirect table), then every
// block it names in one get_many. File data never shares a batch with its
// inode (docs/api.md, "KFS limitations").
//
// Lock order. get_many takes its holds in ascending address order, while
// a KFS writer holds an inode's write lock before it takes that inode's
// data (blocks, indirect table, directory contents). A batch therefore
// holds an inode together with its data only when that data sorts above
// the inode; data below its inode goes in a later round, after the
// round that fetched the inode. Writers never hold two inode locks at
// once (a directory update locks only that directory), which is what
// keeps every wait ordered. A stale guess can still name an address that
// has since been freed and reused for other data: validation keeps the
// answer correct, but the batch's read holds are taken before validation,
// so such a batch may wait on an unrelated writer (docs/api.md, "KFS
// limitations"). A mount drops the cached bytes of every region it frees
// itself.
//
// A mount is used by one thread at a time: the cache has no lock.
//
// A write puts all of its blocks in one batch (put_many) under the
// inode's write lock, and a read fetches all of its blocks in one batch,
// so a whole-file read never mixes two writes.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/client.h"

namespace khz::kfs {

inline constexpr std::uint32_t kBlockSize = 4096;
inline constexpr std::uint32_t kDirectBlocks = 200;
inline constexpr std::uint32_t kIndirectEntries = kBlockSize / 16;
/// Maximum file size: direct + single-indirect blocks.
inline constexpr std::uint64_t kMaxFileSize =
    static_cast<std::uint64_t>(kDirectBlocks + kIndirectEntries) * kBlockSize;
inline constexpr std::size_t kMaxNameLen = 255;
/// Ranges (inode images, indirect tables, directory contents) a mount
/// keeps as guesses for its lookups. It holds the inodes and directories
/// of a few hundred hot files; past it, an arbitrary entry is dropped.
inline constexpr std::size_t kLookupCacheEntries = 1024;

enum class FileType : std::uint8_t { kFile = 1, kDirectory = 2 };

struct Stat {
  FileType type = FileType::kFile;
  std::uint64_t size = 0;
  std::uint32_t nlink = 1;
  GlobalAddress inode;
  core::RegionAttrs attrs;  // region attributes of the inode (per-file knobs)
};

struct DirEntry {
  std::string name;
  GlobalAddress inode;
  FileType type = FileType::kFile;
};

/// Cached handle to an open file ("caching that address").
struct FileHandle {
  GlobalAddress inode;
  FileType type = FileType::kFile;
};

/// On-disk layout of a file's data (paper, Section 4.1): "each block of
/// the filesystem is allocated into a separate 4-kilobyte region. An
/// alternative would be for the filesystem to allocate each file into a
/// single contiguous region."
enum class FileLayout : std::uint8_t {
  /// One region per 4 KiB block (the paper's current implementation):
  /// fine-grained sharing, per-block location/replication.
  kBlockPerRegion = 0,
  /// One contiguous region per file (the paper's alternative): fewer
  /// regions and single-lock I/O, at a fixed capacity chosen at creation
  /// (the resize the paper mentions is out of scope, as it was for them).
  kContiguous = 1,
};

/// Per-file creation parameters (paper: replicas, consistency level,
/// access modes at file-creation time).
struct FileOptions {
  core::RegionAttrs attrs;
  FileLayout layout = FileLayout::kBlockPerRegion;
  /// Capacity of a kContiguous file (rounded up to whole blocks).
  std::uint64_t contiguous_capacity = 1 << 20;
};

class FileSystem {
 public:
  /// Formats a new filesystem; returns the superblock address, the only
  /// thing needed to mount it anywhere.
  static Result<GlobalAddress> mkfs(core::SyncClient& client);

  /// Mounts an existing filesystem by superblock address.
  static Result<FileSystem> mount(core::SyncClient& client,
                                  const GlobalAddress& superblock);

  // --- namespace operations ----------------------------------------------
  Status mkdir(const std::string& path);
  Result<FileHandle> create(const std::string& path,
                            const FileOptions& opts = {});
  Result<FileHandle> open(const std::string& path);
  Status unlink(const std::string& path);
  /// Moves a file or (possibly non-empty) directory to a new path. The
  /// inode address never changes — only directory entries move, so open
  /// handles stay valid (names are paths, identity is the Khazana
  /// address).
  Status rename(const std::string& from, const std::string& to);
  Result<std::vector<DirEntry>> readdir(const std::string& path);
  Result<Stat> stat(const std::string& path);

  // --- file I/O ------------------------------------------------------------
  Result<Bytes> read(const FileHandle& fh, std::uint64_t offset,
                     std::uint64_t len);
  /// kNoSpace when the write would end past the layout's maximum
  /// (kMaxFileSize, or a contiguous file's capacity).
  Status write(const FileHandle& fh, std::uint64_t offset,
               std::span<const std::uint8_t> data);
  /// kNoSpace above the layout's maximum, like write().
  Status truncate(const FileHandle& fh, std::uint64_t new_size);

  /// Filesystem integrity report from fsck().
  struct FsckReport {
    std::uint64_t directories = 0;
    std::uint64_t files = 0;
    std::uint64_t blocks = 0;
    std::uint64_t bytes = 0;
    std::vector<std::string> errors;  // human-readable findings

    [[nodiscard]] bool clean() const { return errors.empty(); }
  };

  /// Walks the whole tree from the root verifying inode magic/shape,
  /// directory encoding, block reachability and size accounting.
  Result<FsckReport> fsck();

  [[nodiscard]] const GlobalAddress& superblock() const {
    return superblock_;
  }
  [[nodiscard]] const GlobalAddress& root() const { return root_inode_; }

 private:
  FileSystem(core::SyncClient& client, GlobalAddress superblock,
             GlobalAddress root)
      : client_(&client), superblock_(superblock), root_inode_(root) {}

  /// On-Khazana inode image (one 4 KiB region per inode).
  struct Inode {
    FileType type = FileType::kFile;
    FileLayout layout = FileLayout::kBlockPerRegion;
    std::uint64_t size = 0;
    std::uint32_t nlink = 1;
    std::int64_t mtime = 0;
    std::vector<GlobalAddress> direct;  // up to kDirectBlocks
    GlobalAddress indirect;             // region of kIndirectEntries addrs
    // kContiguous layout: the single data region.
    GlobalAddress contig;
    std::uint64_t contig_capacity = 0;

    void encode(Encoder& e) const;
    static std::optional<Inode> decode(Decoder& d);
    /// The encoding padded to the inode's 4 KiB region.
    [[nodiscard]] Bytes image() const;
  };

  /// One lookup's reads (defined in fs.cc): what it has validated, the
  /// batch it fetched last, and the mount's cache as the guess for the
  /// rest.
  class Walk;
  /// A walk: a function of the bytes it reads through the Walk, run once
  /// to guess and once to check each batch. It leaves its answer in
  /// variables it captures.
  using WalkFn = std::function<Status(Walk&)>;

  /// What a path names, and the directory that holds it (zero for "/").
  struct Found {
    GlobalAddress parent;
    DirEntry entry;
    Inode inode;                    // with Want::kInode
    std::vector<DirEntry> entries;  // with Want::kEntries, for a directory
  };
  enum class Want : std::uint8_t { kEntry, kInode, kEntries };

  /// Largest size the inode's layout can hold: kMaxFileSize for block
  /// files, the fixed capacity for contiguous ones.
  static std::uint64_t max_size(const Inode& inode);

  /// Runs `walk` over batches fetched with get_many until one batch holds
  /// exactly the ranges the walk reads (see the file comment).
  Status run(Walk& w, const WalkFn& walk);
  /// Descends from the root along `path`. With `leaf`, stops at the
  /// directory that would hold the last component (returned as the
  /// entry) and stores that component in `*leaf`.
  Result<Found> lookup(const std::string& path, Want want,
                       std::string* leaf = nullptr);
  Result<Inode> load_inode(const GlobalAddress& addr);

  /// The mount's cache of lookup guesses.
  struct Cached {
    std::uint64_t size = 0;  // the range's size
    Bytes bytes;             // its leading bytes that a walk reads
  };
  void remember(const AddressRange& range, std::span<const std::uint8_t> bytes);
  /// unreserve() that also drops the region's cached bytes.
  void release(const GlobalAddress& base);

  /// Addresses of blocks [first, first + count), zero-address for a hole.
  /// Reads the indirect table at most once.
  Result<std::vector<GlobalAddress>> block_map(const Inode& inode,
                                               std::uint32_t first,
                                               std::uint32_t count);
  /// Allocates block `idx` as a fresh region with `attrs` (and the
  /// indirect table when needed); updates `inode` in memory.
  Result<GlobalAddress> add_block(Inode& inode, std::uint32_t idx,
                                  const core::RegionAttrs& attrs);
  Status free_block_range(Inode& inode, std::uint32_t first_idx);
  /// Frees a file's or directory's blocks, then its inode region.
  void free_inode(const GlobalAddress& addr);

  /// Creates a fresh inode region with `attrs`; returns its address.
  Result<GlobalAddress> alloc_inode(FileType type,
                                    const core::RegionAttrs& attrs,
                                    const FileOptions* opts = nullptr);
  /// Adds `path` as a new file or directory.
  Result<FileHandle> add_entry(const std::string& path, FileType type,
                               const core::RegionAttrs& attrs,
                               const FileOptions* opts);

  /// Runs `body` under a `mode` lock on the inode at `addr`, with the
  /// inode image read under that lock; unlocks whatever `body` returns.
  Status with_inode_locked(
      const GlobalAddress& addr, consistency::LockMode mode,
      const std::function<Status(const consistency::LockContext&,
                                 const Bytes&)>& body);
  /// Read-modify-write of a directory's entries under its inode's write
  /// lock: `change` edits the entries, or returns an error and nothing is
  /// written.
  Status update_dir(
      const GlobalAddress& dir,
      const std::function<Status(std::vector<DirEntry>&)>& change);

  void fsck_walk(const GlobalAddress& inode_addr, const std::string& path,
                 FsckReport& report, int depth);
  /// Writes under the inode's write lock (`raw` is the image read under
  /// it); `exact_size` sets the size to offset + data.size() instead of
  /// only growing it.
  Status write_locked(const consistency::LockContext& ictx, const Bytes& raw,
                      std::uint64_t offset,
                      std::span<const std::uint8_t> data, bool exact_size);
  /// Stores `inode` under its write lock unless it still equals `raw`.
  Status store_locked(const consistency::LockContext& ictx, const Bytes& raw,
                      const Inode& inode);
  /// Writes a block file's data (allocating missing blocks) in one
  /// put_many.
  Status write_blocks(Inode& inode, const GlobalAddress& inode_addr,
                      std::uint64_t offset,
                      std::span<const std::uint8_t> data);

  core::SyncClient* client_;
  GlobalAddress superblock_;
  GlobalAddress root_inode_;
  std::unordered_map<GlobalAddress, Cached> cache_;
};

/// Splits "/a/b/c" into components; rejects empty names and names over
/// kMaxNameLen. Exposed for tests.
Result<std::vector<std::string>> split_path(const std::string& path);

}  // namespace khz::kfs
