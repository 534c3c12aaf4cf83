// Persistent level of the local storage hierarchy.
//
// Pages live in an append-only SegmentStore (storage/segment_store.h):
// large segment files, each append handed to the kernel before it returns,
// durable at group commit. Alongside the page namespace the store keeps
// "<name>.meta" sidecar files for node-level persistent metadata blobs (the
// page directory's persistent entries, the node's reserved-pool state) and
// owns the write-ahead MetaJournal. Contents survive a killed process — and,
// with sync-on-commit enabled, power loss up to the last commit — which the
// crash/recovery tests exercise.
//
// Durability contract (docs/storage.md). This class is the only owner of
// the sync policy; neither log syncs on its own:
//   * put()/erase() and journal().append() reach the kernel before they
//     return, so a page's bytes are in the file before the journal record
//     that names them. put_meta() replaces its sidecar atomically
//     (temporary file plus rename, both synced when syncing).
//   * commit() closes the batch and, with sync-on-commit, fdatasyncs the
//     segments and then the journal: a synced record never names a page
//     whose bytes are not synced.
//   * maybe_commit() is the policy point after every journal record: under
//     group commit it does nothing (the owner's timer drains the batch);
//     without group commit but with sync-on-commit it commits inline, which
//     is the per-write-fdatasync baseline the bench measures against.
#pragma once

#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/global_address.h"
#include "common/result.h"
#include "common/serialize.h"
#include "obs/metrics.h"
#include "storage/meta_journal.h"
#include "storage/segment_store.h"

namespace khz::storage {

class DiskStore {
 public:
  /// Opens (creating if needed) the store under `root`. capacity_pages == 0
  /// means unbounded.
  explicit DiskStore(std::filesystem::path root,
                     std::size_t capacity_pages = 0);

  /// Appends the page to the segment log (see the durability contract
  /// above). kNoSpace once the page capacity is reached.
  Status put(const GlobalAddress& page, const Bytes& data);
  /// Batch form, for a whole victimization batch.
  Status put_batch(std::vector<PageWrite> batch);
  [[nodiscard]] std::optional<Bytes> get(const GlobalAddress& page) const;
  bool erase(const GlobalAddress& page);
  [[nodiscard]] bool contains(const GlobalAddress& page) const;

  /// Every page present on disk (sorted), for restart recovery.
  [[nodiscard]] std::vector<GlobalAddress> scan() const;

  [[nodiscard]] std::size_t size() const { return segments_->live_pages(); }
  /// Page capacity (0 = unbounded). The hierarchy's batched victimization
  /// uses it to budget a whole batch before appending.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] bool full() const {
    return capacity_ != 0 && segments_->live_pages() >= capacity_;
  }

  /// Group commit: one fdatasync per dirty file over every segment and
  /// journal record appended since the last commit, segments first (with
  /// sync-on-commit). The owning node drains on its group-commit timer
  /// tick and at stop().
  Status commit();
  /// Policy point called after each journal record (see header comment).
  Status maybe_commit();

  /// Enables fdatasync-at-commit for pages, journal and meta sidecars
  /// (NodeConfig::sync_metadata).
  void set_sync_on_commit(bool on) { sync_on_commit_ = on; }
  /// Enables group commit: maybe_commit() stops committing inline and
  /// durability is deferred to the owner's commit() timer.
  void set_group_commit(bool on) { group_commit_ = on; }

  /// Checkpoint/compaction: rewrites live pages out of cold segments and
  /// unlinks them. Returns pages rewritten. Runs on the owner's checkpoint
  /// timer rail, never on a client op's hot path.
  std::size_t compact(std::size_t max_pages = 0) {
    return segments_->compact(max_pages, sync_on_commit_);
  }

  /// Registers the storage.* instruments (docs/observability.md).
  void bind_metrics(obs::MetricsRegistry& m) { segments_->bind_metrics(m); }

  /// Named metadata blobs (not part of the page namespace). put_meta
  /// writes "<name>.meta.tmp" and renames it over "<name>.meta", so a
  /// crash or a failed write leaves the old blob or the new one whole,
  /// never a cut-short file. With sync-on-commit enabled the file is
  /// fdatasync'd before the rename and the directory fsync'd after: meta
  /// blobs are checkpoint snapshots, which must be durable before the
  /// journal they replace is truncated. Any error leaves the old blob.
  Status put_meta(const std::string& name, const Bytes& data);
  [[nodiscard]] std::optional<Bytes> get_meta(const std::string& name) const;

  /// The store's write-ahead metadata journal ("meta.journal" under the
  /// root). The owning node appends mutation records here and replays them
  /// over the last snapshot on restart; see storage/meta_journal.h.
  [[nodiscard]] MetaJournal& journal() { return *journal_; }

  /// The underlying segment store (tests, stats).
  [[nodiscard]] SegmentStore& segments() { return *segments_; }

  [[nodiscard]] const std::filesystem::path& root() const { return root_; }

 private:
  std::filesystem::path root_;
  std::size_t capacity_;
  bool sync_on_commit_ = false;
  bool group_commit_ = false;
  std::unique_ptr<SegmentStore> segments_;
  std::unique_ptr<MetaJournal> journal_;
};

}  // namespace khz::storage
