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
// A read fetches the inode, then every block it covers in one batch
// (SyncClient::get_many), holding all of them at once; a write puts all of
// its blocks in one batch (put_many) under the inode's write lock. A
// whole-file read is therefore one consistent batch: it sees every block
// at the same write, never a mix of two.
#pragma once

#include <optional>
#include <string>
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
  };

  /// Largest size the inode's layout can hold: kMaxFileSize for block
  /// files, the fixed capacity for contiguous ones.
  static std::uint64_t max_size(const Inode& inode);
  Result<Inode> load_inode(const GlobalAddress& addr);
  Status store_inode(const GlobalAddress& addr, const Inode& inode);

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

  /// Creates a fresh inode region with `attrs`; returns its address.
  Result<GlobalAddress> alloc_inode(FileType type,
                                    const core::RegionAttrs& attrs,
                                    const FileOptions* opts = nullptr);

  // Directory content helpers (directory data lives in the dir's blocks,
  // encoded as a flat entry list).
  Result<std::vector<DirEntry>> read_dir(const GlobalAddress& dir_inode);
  /// Decodes the entries of an already loaded directory inode.
  Result<std::vector<DirEntry>> dir_entries(const Inode& dir);
  Status write_dir(const GlobalAddress& dir_inode,
                   const std::vector<DirEntry>& entries);

  /// Resolves `path` by recursive descent from the root. When
  /// `want_parent` is true, returns the parent directory's inode and
  /// stores the final component in `leaf`.
  Result<GlobalAddress> resolve(const std::string& path, bool want_parent,
                                std::string* leaf);

  void fsck_walk(const GlobalAddress& inode_addr, const std::string& path,
                 FsckReport& report, int depth);
  /// Reads [offset, offset + len) of a loaded inode's data, clipped to its
  /// size: the block map once, then every block in one get_many.
  Result<Bytes> read_data(const Inode& inode, std::uint64_t offset,
                          std::uint64_t len);
  /// Writes under the inode's write lock; `exact_size` sets the size to
  /// offset + data.size() instead of only growing it.
  Status file_write(const GlobalAddress& inode_addr, std::uint64_t offset,
                    std::span<const std::uint8_t> data, bool exact_size);
  Status write_locked(const consistency::LockContext& ictx,
                      std::uint64_t offset,
                      std::span<const std::uint8_t> data, bool exact_size);
  /// Writes a block file's data (allocating missing blocks) in one
  /// put_many.
  Status write_blocks(Inode& inode, const GlobalAddress& inode_addr,
                      std::uint64_t offset,
                      std::span<const std::uint8_t> data);

  core::SyncClient* client_;
  GlobalAddress superblock_;
  GlobalAddress root_inode_;
};

/// Splits "/a/b/c" into components; rejects empty names and names over
/// kMaxNameLen. Exposed for tests.
Result<std::vector<std::string>> split_path(const std::string& path);

}  // namespace khz::kfs
