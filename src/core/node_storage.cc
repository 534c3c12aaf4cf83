// Storage-tier integration for core::Node: the eviction hook that runs
// the consistency protocol before a page leaves the local hierarchy,
// page materialization/release for homed regions, and the LocalMapStore
// bridge that keeps the address-map tree's pages in region 0 of this
// very store. Split out of node.cc so each core TU stays one subsystem.
#include <cassert>

#include "core/node.h"

namespace khz::core {

using consistency::LockMode;
using consistency::ProtocolId;
using net::Message;
using net::MsgType;
using storage::PageState;

// ---------------------------------------------------------------------------
// Storage integration
// ---------------------------------------------------------------------------

bool Node::evict_hook(const GlobalAddress& page, const Bytes& data) {
  (void)data;
  // "it must invoke the consistency protocol associated with the page to
  // update the list of sharers, push any dirty data to remote nodes"
  // (Section 3.4).
  auto* info = pages_.find(page);
  if (info == nullptr) return true;  // untracked page: free to drop
  // Map region pages use the release protocol.
  ProtocolId protocol = ProtocolId::kRelease;
  if (!AddressRange{kMapRegionBase, kMapRegionSize}.contains(page)) {
    auto desc = regions_.lookup(page);
    if (!desc) desc = homed_descriptor(page);
    if (desc) protocol = desc->attrs.protocol;
  }
  auto* cm = cm_for(protocol);
  if (cm == nullptr) return true;
  const bool allowed = cm->on_evict(page);
  if (allowed) pages_.erase(page);
  return allowed;
}

void Node::materialize_region_pages(const RegionDescriptor& desc,
                                    const AddressRange& range) {
  const std::uint32_t psz = desc.attrs.page_size;
  for (GlobalAddress p = range.base.page_floor(psz); p < range.end();
       p = p.plus(psz)) {
    auto& info = pages_.ensure(p);
    info.homed_locally = true;
    info.home = config_.id;
    if (storage_.get(p) == nullptr) {
      info.owner = config_.id;
      info.state = PageState::kShared;
      info.sharers.insert(config_.id);
      store_page(p, Bytes(psz, 0));
    }
    if (desc.attrs.min_replicas > 1) maintain_replicas(p);
  }
}

void Node::release_region_pages(const RegionDescriptor& desc,
                                const AddressRange& range) {
  const std::uint32_t psz = desc.attrs.page_size;
  for (GlobalAddress p = range.base.page_floor(psz); p < range.end();
       p = p.plus(psz)) {
    if (auto* info = pages_.find(p)) {
      for (NodeId sharer : info->sharers) {
        if (sharer == config_.id) continue;
        Message m;
        m.type = MsgType::kReplicaDrop;
        m.dst = sharer;
        Encoder e;
        e.addr(p);
        m.payload = std::move(e).take();
        send_msg(std::move(m));
      }
    }
    storage_.erase(p);
    pages_.erase(p);
  }
  // Journal the erase, or recovery brings the page's version back.
  for (GlobalAddress p = range.base.page_floor(psz); p < range.end();
       p = p.plus(psz)) {
    if (journaled_pages_.erase(p) > 0) meta_.record_page_erase(p);
  }
}

// ---------------------------------------------------------------------------
// LocalMapStore: address-map pages live in region 0 of this very store
// ---------------------------------------------------------------------------

Bytes Node::LocalMapStore::read_page(std::uint32_t index) {
  const GlobalAddress addr = kMapRegionBase.plus(
      static_cast<std::uint64_t>(index) * kDefaultPageSize);
  if (const Bytes* data = node_.storage_.get(addr)) return *data;
  return Bytes(kDefaultPageSize, 0);
}

void Node::LocalMapStore::write_page(std::uint32_t index, const Bytes& data) {
  const GlobalAddress addr = kMapRegionBase.plus(
      static_cast<std::uint64_t>(index) * kDefaultPageSize);
  auto* cm = node_.cm_for(ProtocolId::kRelease);
  // At the map's home node the release protocol grants synchronously.
  bool granted = false;
  cm->acquire(addr, LockMode::kWrite, [&granted](Status s) {
    granted = s.ok();
  });
  assert(granted);
  auto& info = node_.pages_.ensure(addr);
  info.homed_locally = true;
  info.home = node_.config_.id;
  if (info.owner == kNoNode) info.owner = node_.config_.id;
  node_.store_page(addr, data);
  cm->release(addr, LockMode::kWrite, /*dirty=*/true);
}


}  // namespace khz::core
