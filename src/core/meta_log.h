// Node-metadata persistence (restart recovery), extracted from Node.
//
// Durable node state = the last full snapshot (the "node_state" meta blob)
// plus a write-ahead journal of every mutation since
// (storage/meta_journal.h). Mutators call record_*() — one O(1) journal
// append per change; once the journal passes kCompactThreshold records the
// next append pulls a fresh snapshot from the host and, once the snapshot
// is safely on disk, truncates the journal. recover() = decode snapshot
// into accumulators, replay journal over them, return the result for the
// node to install.
//
// The MetaLog owns the record format and the compaction policy; what the
// state *means* (installing descriptors, rebuilding page directories) stays
// with the Node.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/types.h"
#include "location/region.h"
#include "storage/hierarchy.h"

namespace khz::core {

class MetaLog {
 public:
  /// Everything the snapshot covers, in both directions: the host builds
  /// one at checkpoint time, recover() returns one for the host to install.
  struct Snapshot {
    std::uint64_t granted_bytes = 0;
    std::vector<AddressRange> pool;
    std::map<GlobalAddress, location::RegionDescriptor> regions;
    std::map<GlobalAddress, Version> page_versions;
  };
  using SnapshotFn = std::function<Snapshot()>;

  /// Journal growth limit before the next append compacts into a snapshot.
  static constexpr std::size_t kCompactThreshold = 1024;

  /// `snapshot` is called at compaction time to capture the host's current
  /// state. Diskless hierarchies turn every operation into a no-op.
  MetaLog(storage::StorageHierarchy& storage, NodeId id, SnapshotFn snapshot);

  // -- mutation records (one O(1) append each) ---------------------------
  void record_region(const location::RegionDescriptor& desc);
  void record_region_erase(const GlobalAddress& base);
  void record_pool(std::uint64_t granted_bytes,
                   const std::vector<AddressRange>& pool);
  void record_page(const GlobalAddress& page, Version version);
  void record_page_erase(const GlobalAddress& page);

  /// Rewrites the full snapshot and, once it is on disk, truncates the
  /// journal. A failed snapshot write keeps the old snapshot and the whole
  /// journal, and the next automatic try waits for another
  /// kCompactThreshold records rather than retrying on every append.
  Status checkpoint();

  /// Snapshot + journal replay. Replay stops at the first torn or corrupt
  /// record (crash mid-append loses only that record).
  [[nodiscard]] Snapshot recover();

 private:
  void append(const Bytes& record);

  storage::StorageHierarchy& storage_;
  NodeId id_;  // log prefix only
  SnapshotFn snapshot_;
  /// Journal length at which append() next checkpoints.
  std::size_t checkpoint_at_ = kCompactThreshold;
};

}  // namespace khz::core
