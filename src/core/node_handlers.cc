// Request handlers and replica maintenance for core::Node. Failure
// detection / fail-over live in node_failover.cc; metadata persistence
// in meta_log.cc.
#include <algorithm>
#include <map>
#include <vector>

#include "common/log.h"
#include "core/node.h"

namespace khz::core {

using consistency::ProtocolId;
using net::Message;
using net::MsgType;
using storage::PageState;

namespace {
constexpr std::uint8_t kStatusOk = 0;
std::uint8_t to_wire(ErrorCode e) { return static_cast<std::uint8_t>(e); }

Bytes status_payload(ErrorCode e) {
  Encoder enc;
  enc.u8(to_wire(e));
  return std::move(enc).take();
}
}  // namespace

// ---------------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------------

void Node::on_join_req(const Message& m) {
  members_.insert(m.src);
  Encoder e;
  e.u32(static_cast<std::uint32_t>(members_.size()));
  for (NodeId n : members_) e.u32(n);
  respond(m, MsgType::kJoinResp, std::move(e).take());
  // Gossip the updated membership so existing nodes learn of the joiner.
  for (NodeId n : members_) {
    if (n == config_.id || n == m.src) continue;
    Encoder g;
    g.u32(static_cast<std::uint32_t>(members_.size()));
    for (NodeId x : members_) g.u32(x);
    Message gm;
    gm.type = MsgType::kNodeListGossip;
    gm.dst = n;
    gm.payload = std::move(g).take();
    send_msg(std::move(gm));
  }
}

// ---------------------------------------------------------------------------
// Address space
// ---------------------------------------------------------------------------

void Node::on_reserve_req(const Message& m) {
  Decoder d(m.payload);
  const std::uint64_t size = d.u64();
  const RegionAttrs attrs = RegionAttrs::decode(d);
  // Serve a remote client's reserve exactly like a local one; this node
  // becomes the region's home.
  reserve(size, attrs, [this, m](Result<GlobalAddress> r) {
    Encoder e;
    e.u8(to_wire(r.ok() ? ErrorCode::kOk : r.error()));
    e.addr(r.ok() ? r.value() : GlobalAddress{});
    respond(m, MsgType::kReserveResp, std::move(e).take());
  });
}

void Node::on_unreserve_req(const Message& m) {
  Decoder d(m.payload);
  const GlobalAddress base = d.addr();
  auto it = homed_regions_.find(base);
  if (it == homed_regions_.end()) {
    // Not (or no longer) homed here; ack so the sender stops retrying.
    respond(m, MsgType::kUnreserveResp, status_payload(ErrorCode::kOk));
    return;
  }
  const RegionDescriptor desc = it->second;  // the drop erases the entry
  drop_homed_region(desc);
  respond(m, MsgType::kUnreserveResp, status_payload(ErrorCode::kOk));
}

void Node::drop_homed_region(const RegionDescriptor& desc) {
  release_region_pages(desc, desc.range);
  homed_regions_.erase(desc.range.base);
  pool_.push_back(desc.range);  // reclaim into the local pool
  meta_.record_region_erase(desc.range.base);
  meta_.record_pool(granted_bytes_, pool_);
  regions_.invalidate(desc.range.base);
  mutate_map(kMapErase, desc.range, {});
  publish_hint(desc.range, /*retract=*/true);
}

void Node::mutate_map(std::uint8_t op, const AddressRange& range,
                      const std::vector<NodeId>& homes) {
  Encoder e;
  e.u8(op);
  e.range(range);
  e.u32(static_cast<std::uint32_t>(homes.size()));
  for (NodeId h : homes) e.u32(h);
  engine_.send_reliable(config_.genesis, MsgType::kMapMutateReq,
                        std::move(e).take());
}

void Node::publish_hint(const AddressRange& range, bool retract) {
  for (NodeId manager : managers()) {
    Encoder hint;
    hint.addr(range.base);
    hint.u64(range.size);
    hint.u32(config_.id);
    hint.u64(pool_bytes());
    hint.boolean(retract);
    Message m;
    m.type = MsgType::kHintPublish;
    m.dst = manager;
    m.payload = std::move(hint).take();
    send_msg(std::move(m));
  }
}

void Node::on_space_req(const Message& m) {
  Decoder d(m.payload);
  const std::uint64_t want = d.u64();
  if (!is_manager()) {
    respond(m, MsgType::kSpaceResp,
            status_payload(ErrorCode::kBadArgument));
    return;
  }
  // Each manager owns a private slab of the 128-bit space (manager k:
  // [kFirstClientAddress + k*kManagerSlab, ...)) and bumps within it, so
  // concurrent managers never grant overlapping chunks without any
  // coordination. The slab is 2^45 bytes: inexhaustible at this scale.
  constexpr std::uint64_t kManagerSlab = 1ull << 45;
  const auto& ms = managers();
  const std::uint64_t my_index = static_cast<std::uint64_t>(
      std::find(ms.begin(), ms.end(), config_.id) - ms.begin());
  const std::uint64_t granted =
      std::max<std::uint64_t>(want, kPoolChunkSize);
  const GlobalAddress base =
      kFirstClientAddress.plus(my_index * kManagerSlab + granted_bytes_);
  granted_bytes_ += granted;
  meta_.record_pool(granted_bytes_, pool_);
  cluster_.report_free_space(m.src, granted, now());
  Encoder e;
  e.u8(kStatusOk);
  e.addr(base);
  e.u64(granted);
  respond(m, MsgType::kSpaceResp, std::move(e).take());
}

void Node::on_map_mutate_req(const Message& m) {
  Decoder d(m.payload);
  const std::uint8_t op = d.u8();
  const AddressRange range = d.range();
  std::vector<NodeId> homes;
  const std::uint32_t n = d.u32();
  for (std::uint32_t i = 0; i < n && d.ok(); ++i) homes.push_back(d.u32());

  if (map_ == nullptr) {
    respond(m, MsgType::kMapMutateResp,
            status_payload(ErrorCode::kBadArgument));
    return;
  }
  Status s;
  switch (op) {
    case kMapInsert: s = map_->insert(range, homes); break;
    case kMapErase: s = map_->erase(range.base); break;
    case kMapUpdateHomes: s = map_->update_homes(range.base, homes); break;
    default: s = ErrorCode::kBadArgument; break;
  }
  // Duplicate deliveries of reliable sends are expected; report them as
  // success so the sender's retry loop terminates.
  if (s.error() == ErrorCode::kAlreadyReserved && op == kMapInsert) {
    s = Status{};
  }
  if (s.error() == ErrorCode::kNotFound && op != kMapInsert) s = Status{};
  respond(m, MsgType::kMapMutateResp, status_payload(s.error()));
}

// ---------------------------------------------------------------------------
// Location
// ---------------------------------------------------------------------------

void Node::on_desc_lookup_req(const Message& m) {
  Decoder d(m.payload);
  const GlobalAddress addr = d.addr();
  if (auto desc = homed_descriptor(addr)) {
    Encoder e;
    e.u8(kStatusOk);
    desc->encode(e);
    respond(m, MsgType::kDescLookupResp, std::move(e).take());
    return;
  }
  respond(m, MsgType::kDescLookupResp, status_payload(ErrorCode::kNotFound));
}

void Node::on_hint_query_req(const Message& m) {
  Decoder d(m.payload);
  const GlobalAddress addr = d.addr();
  const auto nodes = cluster_.hint(addr);
  Encoder e;
  e.u8(kStatusOk);
  e.u32(static_cast<std::uint32_t>(nodes.size()));
  for (NodeId n : nodes) e.u32(n);
  respond(m, MsgType::kHintQueryResp, std::move(e).take());
}

void Node::on_hint_publish(const Message& m) {
  Decoder d(m.payload);
  const GlobalAddress base = d.addr();
  const std::uint64_t size = d.u64();
  const NodeId subject = d.u32();
  const std::uint64_t pool = d.u64();
  const bool retract = d.boolean();
  // Stamped with the local clock: anti-entropy merges newest-wins, and
  // best_pool_node ages offers against the free-space TTL.
  if (retract) {
    cluster_.retract(base, subject, now());
  } else {
    cluster_.publish(base, size, subject, now());
  }
  cluster_.report_free_space(m.src, pool, now());
}

void Node::on_cluster_walk_req(const Message& m) {
  Decoder d(m.payload);
  const GlobalAddress addr = d.addr();
  Encoder e;
  if (auto homed = homed_descriptor(addr)) {
    e.boolean(true);
    homed->encode(e);
  } else if (auto cached = regions_.lookup(addr)) {
    e.boolean(true);
    cached->encode(e);
  } else {
    e.boolean(false);
  }
  respond(m, MsgType::kClusterWalkResp, std::move(e).take());
}

void Node::on_locate_req(const Message& m) {
  Decoder d(m.payload);
  const GlobalAddress addr = d.addr();
  const auto desc = homed_descriptor(addr);
  if (!desc) {
    respond(m, MsgType::kLocateResp, status_payload(ErrorCode::kNotFound));
    return;
  }
  const GlobalAddress page = desc->page_of(addr);
  std::set<NodeId> holders;
  if (auto* info = pages_.find(page)) {
    holders = info->sharers;
    if (info->owner != kNoNode) holders.insert(info->owner);
  }
  Encoder e;
  e.u8(kStatusOk);
  e.u32(static_cast<std::uint32_t>(holders.size()));
  for (NodeId n : holders) e.u32(n);
  respond(m, MsgType::kLocateResp, std::move(e).take());
}

// ---------------------------------------------------------------------------
// Storage allocation
// ---------------------------------------------------------------------------

void Node::on_alloc_req(const Message& m) {
  Decoder d(m.payload);
  const AddressRange range = d.range();
  auto it = homed_regions_.upper_bound(range.base);
  if (it == homed_regions_.begin() ||
      !std::prev(it)->second.range.contains_range(range)) {
    respond(m, MsgType::kAllocResp, status_payload(ErrorCode::kNotFound));
    return;
  }
  auto& desc = std::prev(it)->second;
  materialize_region_pages(desc, range);
  desc.allocated = true;
  regions_.insert(desc);
  meta_.record_region(desc);
  respond(m, MsgType::kAllocResp, status_payload(ErrorCode::kOk));
}

void Node::on_free_req(const Message& m) {
  Decoder d(m.payload);
  const AddressRange range = d.range();
  if (auto desc = homed_descriptor(range.base);
      desc && desc->range.contains_range(range)) {
    release_region_pages(*desc, range);
  }
  respond(m, MsgType::kFreeResp, status_payload(ErrorCode::kOk));
}

// ---------------------------------------------------------------------------
// Attributes
// ---------------------------------------------------------------------------

void Node::on_attr_req(const Message& m, bool set) {
  Decoder d(m.payload);
  const GlobalAddress addr = d.addr();
  auto it = homed_regions_.upper_bound(addr);
  if (it == homed_regions_.begin() ||
      !std::prev(it)->second.range.contains(addr)) {
    respond(m, set ? MsgType::kSetAttrResp : MsgType::kGetAttrResp,
            status_payload(ErrorCode::kNotFound));
    return;
  }
  RegionDescriptor& desc = std::prev(it)->second;
  if (!set) {
    Encoder e;
    e.u8(kStatusOk);
    desc.attrs.encode(e);
    respond(m, MsgType::kGetAttrResp, std::move(e).take());
    return;
  }
  RegionAttrs attrs = RegionAttrs::decode(d);
  const std::uint32_t principal = d.u32();
  if (!desc.attrs.acl.allows(principal, /*write=*/true)) {
    respond(m, MsgType::kSetAttrResp,
            status_payload(ErrorCode::kAccessDenied));
    return;
  }
  // Page size and protocol are fixed at reserve time in the current
  // prototype ("Currently all instances of an object must be accessed
  // using the same consistency mechanisms", Section 2); the mutable
  // attributes are the level, ACL and replication factor.
  attrs.page_size = desc.attrs.page_size;
  attrs.protocol = desc.attrs.protocol;
  desc.attrs = attrs;
  regions_.insert(desc);
  meta_.record_region(desc);
  respond(m, MsgType::kSetAttrResp, status_payload(ErrorCode::kOk));
}

// ---------------------------------------------------------------------------
// Replica maintenance (Section 3.5: minimum primary replicas)
// ---------------------------------------------------------------------------

// Payload: region descriptor, u32 count, then count * { addr page,
// u64 version, bool from_owner, bytes data }. Multi-page pushes (bulk
// replication such as replicate_to) ride in one message instead of one
// per page; routine min-replica maintenance sends count == 1.
void Node::on_replica_push(const Message& m) {
  Decoder d(m.payload);
  RegionDescriptor desc = RegionDescriptor::decode(d);
  const std::uint32_t count = d.u32();
  if (!d.ok()) return;
  regions_.insert(desc);

  for (std::uint32_t i = 0; i < count; ++i) {
    const GlobalAddress page = d.addr();
    const Version version = d.u64();
    const bool from_owner = d.boolean();
    Bytes data = d.bytes();
    if (!d.ok()) return;

    auto& info = pages_.ensure(page);

    if (from_owner && desc.primary_home() == config_.id) {
      // The exclusive owner pushed its dirty data back and demoted itself
      // to a shared copy; the home becomes the owner again and fans out
      // further replicas as needed.
      info.homed_locally = true;
      info.home = config_.id;
      info.owner = config_.id;
      info.state = PageState::kShared;
      info.version = std::max(info.version, version);
      info.sharers.insert(config_.id);
      info.sharers.insert(m.src);
      store_page(page, std::move(data));
      maintain_replicas(page);
      continue;
    }

    // Plain replica install.
    if (info.locked()) continue;  // never clobber data under an active lock
    info.home = desc.primary_home();
    info.state = PageState::kShared;
    info.version = std::max(info.version, version);
    store_page(page, std::move(data));
  }
}

void Node::on_replica_drop(const Message& m) {
  Decoder d(m.payload);
  const GlobalAddress page = d.addr();
  auto* info = pages_.find(page);
  if (info != nullptr) {
    if (info->locked()) return;
    info->state = PageState::kInvalid;
  }
  storage_.erase(page);
  pages_.erase(page);
}

void Node::maintain_replicas(const GlobalAddress& page) {
  if (AddressRange{kMapRegionBase, kMapRegionSize}.contains(page)) return;

  auto* info = pages_.find(page);
  if (info == nullptr) return;

  // Home side: top the copyset up to min_replicas.
  auto it = homed_regions_.upper_bound(page);
  if (it != homed_regions_.begin() &&
      std::prev(it)->second.range.contains(page)) {
    RegionDescriptor& desc = std::prev(it)->second;
    const std::uint32_t target = desc.attrs.min_replicas;
    if (target <= 1) return;
    if (info->state == PageState::kInvalid) return;  // owner holds the data
    const Bytes* data = storage_.get(page);
    if (data == nullptr) return;
    info->sharers.insert(config_.id);

    // Ring order starting after this node: spreads replicas instead of
    // dog-piling the lowest node ids.
    std::vector<NodeId> candidates = membership();
    std::sort(candidates.begin(), candidates.end());
    const auto pivot = std::upper_bound(candidates.begin(), candidates.end(),
                                        config_.id);
    std::rotate(candidates.begin(), pivot, candidates.end());

    std::vector<NodeId> new_replicas;
    for (NodeId n : candidates) {
      if (info->sharers.size() + new_replicas.size() >= target) break;
      if (n == config_.id || info->sharers.contains(n)) continue;
      new_replicas.push_back(n);
    }
    // Once copies exist beyond this node, the page is no longer exclusive
    // here: demote so the next local write runs the full invalidation
    // round against the pushed replicas.
    if ((!new_replicas.empty() || info->sharers.size() > 1) &&
        info->state == PageState::kExclusive) {
      info->state = PageState::kShared;
    }
    for (NodeId n : new_replicas) {
      Encoder e;
      desc.encode(e);
      e.u32(1);
      e.addr(page);
      e.u64(info->version);
      e.boolean(false);
      e.bytes(*data);
      Message m;
      m.type = MsgType::kReplicaPush;
      m.dst = n;
      m.payload = std::move(e).take();
      send_msg(std::move(m));
      info->sharers.insert(n);
      ins_.replica_pushes->inc();
      // Record the replica as an alternate home so lookups and failure
      // fallbacks can find it (the map entry's home list is
      // non-exhaustive by design).
      if (std::find(desc.home_nodes.begin(), desc.home_nodes.end(), n) ==
              desc.home_nodes.end() &&
          desc.home_nodes.size() < AddressMap::kMaxHomes) {
        desc.home_nodes.push_back(n);
        regions_.insert(desc);
        mutate_map(kMapUpdateHomes, desc.range, desc.home_nodes);
      }
    }
    return;
  }

  // Owner side: after a dirty release on a region with a replication
  // requirement, ship the data back to the home and demote to a shared
  // copy so the home can maintain the replica set and serialize the next
  // writer.
  if (info->owner == config_.id && info->state == PageState::kExclusive) {
    const std::uint32_t target = min_replicas_of(page);
    if (target <= 1) return;
    auto desc = regions_.lookup(page);
    if (!desc) return;
    const Bytes* data = storage_.get(page);
    if (data == nullptr) return;
    Encoder e;
    desc->encode(e);
    e.u32(1);
    e.addr(page);
    e.u64(info->version);
    e.boolean(true);  // from_owner
    e.bytes(*data);
    Message m;
    m.type = MsgType::kReplicaPush;
    m.dst = desc->primary_home();
    m.payload = std::move(e).take();
    send_msg(std::move(m));
    info->state = PageState::kShared;
    ins_.replica_pushes->inc();
  }
}

}  // namespace khz::core
