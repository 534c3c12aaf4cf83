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
// Each append reaches the kernel with one write(2) before it returns, so a
// killed process loses no record. The journal keeps no sync policy of its
// own: DiskStore::commit() calls sync() after the segments it names are
// synced.
//
// Record framing: u32 LE payload length, u32 LE FNV-1a checksum, payload.
// Replay stops at the first truncated or corrupt record — exactly what a
// crash mid-append leaves behind — so a torn tail never poisons recovery.
#pragma once

#include <cstdint>
#include <filesystem>
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

  /// Appends one framed record with one write(2). It survives the process
  /// at once, and power loss after the next sync().
  Status append(const Bytes& record);

  /// fdatasyncs the records appended since the last sync (no-op when there
  /// are none).
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
  std::filesystem::path path_;
  int fd_ = -1;  // O_APPEND: every write lands at the end, also after reset()
  std::size_t appended_ = 0;
  bool dirty_ = false;  // records written but not yet fdatasync'd
};

}  // namespace khz::storage
