// Resolver::Host glue and metadata persistence glue for core::Node:
// homed-descriptor lookup, map page fetch, meta-log snapshot/journal and
// crash recovery.
#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "core/node.h"

namespace khz::core {

using consistency::LockContext;
using consistency::LockMode;
using consistency::ProtocolId;
using net::Message;
using net::MsgType;
using storage::PageState;

// ---------------------------------------------------------------------------
// Resolver::Host glue + metadata persistence glue
// ---------------------------------------------------------------------------

std::optional<RegionDescriptor> Node::homed_descriptor(
    const GlobalAddress& addr) {
  auto it = homed_regions_.upper_bound(addr);
  if (it != homed_regions_.begin()) {
    const auto& [base, desc] = *std::prev(it);
    if (desc.range.contains(addr)) return desc;
  }
  return std::nullopt;
}

void Node::fetch_map_page(std::uint32_t index,
                          std::function<void(Result<Bytes>)> cb) {
  if (map_ != nullptr) {
    cb(map_store_->read_page(index));
    return;
  }
  const GlobalAddress addr = kMapRegionBase.plus(
      static_cast<std::uint64_t>(index) * kDefaultPageSize);
  auto* cm = cm_for(ProtocolId::kRelease);
  cm->acquire(addr, LockMode::kRead, [this, addr, cb = std::move(cb)](
                                         Status s) mutable {
    if (!s.ok()) {
      cb(s.error());
      return;
    }
    const Bytes* data = storage_.get(addr);
    Bytes copy = data != nullptr ? *data : Bytes(kDefaultPageSize, 0);
    cm_for(ProtocolId::kRelease)->release(addr, LockMode::kRead, false);
    cb(std::move(copy));
  });
}

MetaLog::Snapshot Node::snapshot_state() {
  // MetaLog calls this from inside a record_* or checkpoint(). Page
  // versions come from journaled_pages_, the set the journal names, not
  // from the page directory.
  MetaLog::Snapshot snap;
  snap.granted_bytes = granted_bytes_;
  snap.pool = pool_;
  snap.regions = homed_regions_;
  snap.page_versions = journaled_pages_;
  return snap;
}

void Node::journal_page(const GlobalAddress& page) {
  const auto* info = pages_.find(page);
  const Version v = info != nullptr ? info->version : 0;
  journaled_pages_[page] = v;
  meta_.record_page(page, v);
}

// ---------------------------------------------------------------------------
// Segment-store data plane (docs/storage.md)
// ---------------------------------------------------------------------------

void Node::configure_disk() {
  disk_->bind_metrics(metrics_);
  if (config_.sync_metadata) disk_->set_sync_on_commit(true);
  if (config_.group_commit_us > 0) disk_->set_group_commit(true);
}

void Node::start_storage_timers() {
  if (disk_ == nullptr) return;
  if (config_.group_commit_us > 0 && commit_timer_ == 0) {
    commit_timer_ =
        transport_.schedule(config_.group_commit_us, [this] { commit_tick(); });
  }
  if (config_.checkpoint_interval > 0 && checkpoint_timer_ == 0) {
    checkpoint_timer_ = transport_.schedule(config_.checkpoint_interval,
                                            [this] { checkpoint_tick(); });
  }
}

void Node::stop_storage_timers() {
  if (commit_timer_ != 0) {
    transport_.cancel(commit_timer_);
    commit_timer_ = 0;
  }
  if (checkpoint_timer_ != 0) {
    transport_.cancel(checkpoint_timer_);
    checkpoint_timer_ = 0;
  }
  // A stopping node must not leave acknowledged writes in the pending
  // batch: drain it one last time.
  if (disk_ != nullptr) (void)disk_->commit();
}

void Node::commit_tick() {
  (void)disk_->commit();
  commit_timer_ =
      transport_.schedule(config_.group_commit_us, [this] { commit_tick(); });
}

void Node::checkpoint_tick() {
  // A tick with nothing journaled since the last snapshot keeps it:
  // rewriting node_state.meta would cost a file and a directory fsync under
  // sync_metadata for nothing.
  if (disk_->journal().appended() > 0) (void)meta_.checkpoint();
  (void)disk_->compact(config_.compaction_pages_per_tick);
  checkpoint_timer_ = transport_.schedule(config_.checkpoint_interval,
                                          [this] { checkpoint_tick(); });
}

void Node::recover_meta() {
  if (disk_ == nullptr) return;
  MetaLog::Snapshot snap = meta_.recover();

  // Install the recovered state. Runs from start() before any traffic.
  granted_bytes_ = snap.granted_bytes;
  pool_ = std::move(snap.pool);
  for (const auto& [base, desc] : snap.regions) {
    homed_regions_[base] = desc;
    regions_.insert(desc);
  }
  journaled_pages_ = snap.page_versions;
  for (const auto& [p, v] : snap.page_versions) {
    auto& info = pages_.ensure(p);
    info.homed_locally = true;
    info.home = config_.id;
    info.owner = config_.id;
    info.version = v;
    // Volatile copies elsewhere died with the crash from this node's point
    // of view; the copyset restarts at just us.
    info.state = disk_->contains(p) ? PageState::kShared : PageState::kInvalid;
    info.sharers = {config_.id};
  }
}

}  // namespace khz::core
