// Segment/extent page store: the durable data plane under DiskStore.
//
// The seed disk tier kept one file per 4 KiB page and re-opened it on every
// write — neither crash-safe (flush, no fdatasync) nor fast (an open/close
// pair and a metadata-heavy tiny file per write). This store replaces it
// with a log-structured extent layout borrowed from striped-storage systems
// (PAPERS.md: "Distributed Management of Massive Data"; DAOS VOS is the
// structural reference in SNIPPETS.md):
//
//   * Pages are appended as framed records into large segment files
//     (`<id>.seg`, default 8 MiB) through a write-behind buffer, so a page
//     write is a memcpy plus an occasional coalesced write(2).
//   * Durability is **group commit**: commit() flushes the buffer and
//     issues one fdatasync covering every record appended since the last
//     commit. The owner (core::Node) drains on a timer tick
//     (group_commit_us), amortizing one sync over a whole batch of page
//     writes — and, through
//     DiskStore::commit(), the MetaJournal's records too.
//   * An in-memory index (address -> segment/offset/length) is the only
//     lookup structure; it is rebuilt on open by scanning the segments in
//     id order (newest record wins, tombstones delete). A torn tail — the
//     signature of a crash mid-append — fails the record checksum, ends
//     the scan of that segment, and is truncated away so new appends start
//     from the last intact record. Everything group-committed before the
//     crash is recovered byte-identically.
//   * compact() rewrites the live records out of mostly-dead cold segments
//     into the head segment and unlinks them (checkpoint/compaction pass;
//     Node runs it on its own timer rail so client ops never block on
//     it). Sources are unlinked only after the copies are committed.
//
// Record framing (little-endian): u32 magic, u8 kind (put/tombstone),
// u64 addr.hi, u64 addr.lo, u32 payload length, u32 FNV-1a payload
// checksum, payload.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/global_address.h"
#include "common/result.h"
#include "common/serialize.h"
#include "obs/metrics.h"

namespace khz::storage {

/// One page write destined for the segment log (batched victimization
/// writeback hands the store a vector of these).
struct PageWrite {
  GlobalAddress addr;
  Bytes data;
};

struct SegmentConfig {
  /// Target segment file size; an append that pushes the head segment past
  /// this rotates to a fresh file.
  std::uint64_t segment_bytes = 8ull << 20;
  /// Write-behind buffer: records accumulate in memory and reach the file
  /// in one write(2) when the buffer fills (or at commit/rotation/read).
  std::size_t flush_buffer_bytes = 256u << 10;
};

/// Occupancy counters, for compaction policy and tests.
struct SegmentStats {
  std::size_t segments = 0;       // live segment files (incl. head)
  std::uint64_t live_bytes = 0;   // payload bytes reachable via the index
  std::uint64_t dead_bytes = 0;   // superseded/tombstoned payload bytes
};

class SegmentStore {
 public:
  /// Opens (creating if needed) the store under `dir` and rebuilds the
  /// index by scanning existing segments; truncates a torn tail.
  explicit SegmentStore(std::filesystem::path dir, SegmentConfig cfg = {});
  ~SegmentStore();

  SegmentStore(const SegmentStore&) = delete;
  SegmentStore& operator=(const SegmentStore&) = delete;

  /// Appends one page record (write-behind; durable at the next committed
  /// group commit when sync-on-commit is enabled).
  Status put(const GlobalAddress& addr, const Bytes& data);
  /// Appends a batch of page records — the hierarchy's victimization
  /// writeback path.
  Status put_batch(std::vector<PageWrite> batch);
  /// Appends a tombstone; returns whether the page was present.
  bool erase(const GlobalAddress& addr);

  [[nodiscard]] std::optional<Bytes> get(const GlobalAddress& addr);
  [[nodiscard]] bool contains(const GlobalAddress& addr) const {
    return index_.contains(addr);
  }
  [[nodiscard]] std::size_t live_pages() const { return index_.size(); }
  /// Every live page (sorted), for restart recovery.
  [[nodiscard]] std::vector<GlobalAddress> scan() const;

  /// Group commit: flushes the write-behind buffer and (when sync-on-commit
  /// is on) fdatasyncs every segment fd dirtied since the last commit —
  /// one sync for the whole batch. No-op when nothing is pending.
  Status commit();
  /// Enables fdatasync-on-commit (NodeConfig::sync_metadata). Off by
  /// default: sim tests only need crash-of-the-process durability, which
  /// the destructor's buffer flush provides.
  void set_sync_on_commit(bool on) { sync_on_commit_ = on; }

  /// Payload bytes appended since the last commit().
  [[nodiscard]] std::uint64_t pending_bytes() const { return pending_bytes_; }
  [[nodiscard]] std::uint64_t pending_pages() const { return pending_pages_; }

  /// Checkpoint/compaction: rewrites the live records of cold segments
  /// (less than half their payload still live, plus fully-dead ones) into
  /// the head segment, commits the copies, then unlinks the sources.
  /// `max_pages` > 0 bounds the rewrite work of one pass: the pass always
  /// takes its first cold segment, whatever its live set, and after that
  /// only segments whose whole live set fits in the remaining budget
  /// (partially rewritten segments cannot be unlinked). A backlog drains
  /// across ticks instead of stalling one checkpoint, and a cold segment
  /// larger than the budget is still reclaimed. Returns pages rewritten.
  std::size_t compact(std::size_t max_pages = 0);

  [[nodiscard]] SegmentStats stats() const;

  /// Registers the storage.* instruments against `m` (docs/observability.md
  /// metric catalogue). Safe to skip: unbound stores simply do not record.
  void bind_metrics(obs::MetricsRegistry& m);

 private:
  struct Locator {
    std::uint64_t seg = 0;
    std::uint64_t offset = 0;  // of the payload, past the record header
    std::uint32_t len = 0;
  };
  struct Segment {
    std::uint64_t total_payload = 0;  // payload bytes ever appended
    std::uint64_t live_payload = 0;   // payload bytes still indexed
    std::uint64_t size = 0;           // file size incl. buffered tail
    int read_fd = -1;                 // lazy pread handle
  };

  [[nodiscard]] std::filesystem::path seg_path(std::uint64_t id) const;
  /// Serializes one record into the write-behind buffer and indexes it.
  Status append(const GlobalAddress& addr, const Bytes* data);
  void flush_buffer();
  void rotate();
  void open_head(std::uint64_t id);
  /// Scans one segment file into the index; returns the offset of the
  /// first torn/corrupt record (== intact file size).
  std::uint64_t scan_segment(std::uint64_t id);
  void drop_index(const GlobalAddress& addr);
  [[nodiscard]] int reader(std::uint64_t id);
  void update_gauge();

  std::filesystem::path dir_;
  SegmentConfig cfg_;
  bool sync_on_commit_ = false;

  std::unordered_map<GlobalAddress, Locator> index_;
  std::map<std::uint64_t, Segment> segments_;  // ordered: scan/compact order
  std::uint64_t head_ = 0;                     // current segment id
  int head_fd_ = -1;
  std::uint64_t head_flushed_ = 0;  // file bytes actually written to the fd
  Bytes buffer_;                    // write-behind tail of the head segment
  /// Rotated-away fds not yet fdatasync'd (closed at the next commit).
  std::vector<int> unsynced_fds_;
  bool head_dirty_ = false;
  std::uint64_t pending_bytes_ = 0;
  std::uint64_t pending_pages_ = 0;

  // Unbound-safe instrument pointers (docs/observability.md).
  obs::Histogram* group_commit_pages_ = nullptr;
  obs::Histogram* fsync_us_ = nullptr;
  obs::Gauge* segments_live_ = nullptr;
  obs::Counter* compaction_pages_ = nullptr;
};

}  // namespace khz::storage
