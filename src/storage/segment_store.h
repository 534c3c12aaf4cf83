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
//     (`<id>.seg`, default 8 MiB). Every append reaches the kernel before
//     it returns: one write(2) per record, or per batch for put_batch()
//     and for each segment compaction rewrites. A killed process therefore
//     leaves every appended record in the file, and the journal record
//     that names a page (written after the page) never outlives its bytes.
//   * Durability against power loss is **group commit**: commit(true)
//     issues one fdatasync covering every record appended since the last
//     commit. DiskStore owns the policy: it commits the segments before
//     the MetaJournal, on the owner's timer tick (group_commit_us) or after
//     every journal record without group commit.
//   * An in-memory index (address -> segment/offset/length) is the only
//     lookup structure; it is rebuilt on open by scanning the segments in
//     id order (newest record wins, tombstones delete). A torn tail — the
//     signature of a crash mid-append — fails the record checksum, ends
//     the scan of that segment, and is truncated away so new appends start
//     from the last intact record.
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
#include <span>
#include <unordered_map>
#include <utility>
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
  /// Target segment file size; the first append after the head segment
  /// reaches it rotates to a fresh file.
  std::uint64_t segment_bytes = 8ull << 20;
};

/// FNV-1a over `n` bytes: the record checksum of the segment log and of the
/// metadata journal.
std::uint32_t fnv1a(const std::uint8_t* data, std::size_t n);

/// write(2) until all `n` bytes are on the fd (short writes, EINTR).
bool write_all(int fd, const std::uint8_t* data, std::size_t n);

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

  /// Appends one page record with one write(2); durable at the next
  /// commit(true).
  Status put(const GlobalAddress& addr, const Bytes& data);
  /// Appends a batch of page records with one write(2) — the hierarchy's
  /// victimization writeback path.
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

  /// Group commit: closes the batch appended since the last commit and,
  /// when `sync`, fdatasyncs every segment fd it wrote — one sync for the
  /// whole batch. No-op when nothing is pending.
  Status commit(bool sync);

  /// Payload bytes appended since the last commit().
  [[nodiscard]] std::uint64_t pending_bytes() const { return pending_bytes_; }
  [[nodiscard]] std::uint64_t pending_pages() const { return pending_pages_; }

  /// Checkpoint/compaction: rewrites the live records of cold segments
  /// (less than half their payload still live, plus fully-dead ones) into
  /// the head segment, commits the copies (syncing them when `sync`), then
  /// unlinks the sources.
  /// `max_pages` > 0 bounds the rewrite work of one pass: the pass always
  /// takes its first cold segment, whatever its live set, and after that
  /// only segments whose whole live set fits in the remaining budget
  /// (partially rewritten segments cannot be unlinked). A backlog drains
  /// across ticks instead of stalling one checkpoint, and a cold segment
  /// larger than the budget is still reclaimed. Returns pages rewritten.
  std::size_t compact(std::size_t max_pages, bool sync);

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
    std::uint64_t size = 0;           // file size
    int read_fd = -1;                 // lazy pread handle
  };

  /// A page record to append, or a tombstone when the payload is null.
  using Record = std::pair<GlobalAddress, const Bytes*>;

  [[nodiscard]] std::filesystem::path seg_path(std::uint64_t id) const;
  /// Frames `records` and writes them to the head segment with one
  /// write(2); indexes them only once their bytes are on the fd. A failed
  /// write seals the head, so the next append starts a fresh segment at a
  /// known offset.
  Status append(std::span<const Record> records);
  void rotate();
  void open_head(std::uint64_t id);
  /// Scans one segment file into the index; returns the offset of the
  /// first torn/corrupt record (== intact file size).
  std::uint64_t scan_segment(std::uint64_t id);
  void drop_index(const GlobalAddress& addr);
  [[nodiscard]] int reader(std::uint64_t id);
  /// pread of one indexed payload; nullopt if the segment cannot be read.
  [[nodiscard]] std::optional<Bytes> read_payload(const Locator& loc);
  void update_gauge();

  std::filesystem::path dir_;
  SegmentConfig cfg_;

  std::unordered_map<GlobalAddress, Locator> index_;
  std::map<std::uint64_t, Segment> segments_;  // ordered: scan/compact order
  std::uint64_t head_ = 0;                     // current segment id
  int head_fd_ = -1;
  /// Rotated-away fds written since the last commit (synced when the
  /// commit syncs, then closed).
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
