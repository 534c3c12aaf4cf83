// Per-node write-ahead record of metadata mutations.
//
// The node's region descriptors and the persistent slice of its page
// directory must survive a crash: a rebooted node rejoins with its hosted
// regions intact instead of empty (DESIGN.md, docs/recovery.md). Rewriting
// the full metadata snapshot on every mutation is O(state); this journal
// makes each mutation an O(1) append. Recovery = load the last snapshot
// ("node_state" meta blob), then replay the journal over it. The journal is
// periodically compacted back into a fresh snapshot by the owner.
//
// Record framing: u32 LE payload length, u32 LE FNV-1a checksum, payload.
// Replay stops at the first truncated or corrupt record — exactly what a
// crash mid-append leaves behind — so a torn tail never poisons recovery.
#pragma once

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>

#include "common/result.h"
#include "common/serialize.h"

namespace khz::storage {

class MetaJournal {
 public:
  /// Opens (creating if absent) the journal file at `path` for appending.
  explicit MetaJournal(std::filesystem::path path);
  ~MetaJournal();

  MetaJournal(const MetaJournal&) = delete;
  MetaJournal& operator=(const MetaJournal&) = delete;

  /// Appends one framed record and flushes it to the OS. With
  /// sync-on-commit enabled (and group commit off) the record is also
  /// fdatasync'd to stable storage before append() returns, so an
  /// acknowledged metadata mutation survives power loss, not just a
  /// process crash. Under group commit the fdatasync is deferred to the
  /// next sync() — one sync covers the whole batch.
  Status append(const Bytes& record);

  /// Enables (or disables) fdatasync-on-commit. Off by default: the sim
  /// worlds journal thousands of records per test and only need
  /// crash-of-the-process durability, which flush() already gives them.
  /// Production-profile nodes (NodeConfig::sync_metadata) turn it on.
  void set_sync_on_commit(bool on) { sync_on_commit_ = on; }
  [[nodiscard]] bool sync_on_commit() const { return sync_on_commit_; }

  /// Under group commit append() stops syncing inline; DiskStore::commit()
  /// calls sync() to fdatasync the accumulated records in one shot.
  void set_group_commit(bool on) { group_commit_ = on; }

  /// fdatasyncs any records appended since the last sync (no-op unless
  /// sync-on-commit is enabled and something is pending). The group-commit
  /// drain point.
  Status sync();

  /// Invokes `cb` for every intact record, oldest first; returns how many
  /// were replayed. Safe to call on a journal that is also open for append
  /// (replay reads an independent handle).
  std::size_t replay(const std::function<void(const Bytes&)>& cb) const;

  /// Truncates the journal to zero records. The caller writes a snapshot
  /// covering everything the journal recorded *before* calling this.
  Status reset();

  /// Records appended since open/reset — the owner's compaction trigger.
  [[nodiscard]] std::size_t appended() const { return appended_; }

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  /// The fd used for fdatasync. std::ofstream hides its descriptor, so the
  /// sync path opens a second POSIX handle onto the same inode (lazily, on
  /// the first synced append) and syncs through that after flush().
  [[nodiscard]] bool sync_now();

  std::filesystem::path path_;
  std::ofstream out_;
  std::size_t appended_ = 0;
  bool sync_on_commit_ = false;
  bool group_commit_ = false;
  bool dirty_ = false;  // records flushed but not yet fdatasync'd
  int sync_fd_ = -1;
};

}  // namespace khz::storage
