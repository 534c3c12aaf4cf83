// Failure detection, the manager hint anti-entropy that spreads its
// retractions, and home fail-over for core::Node (Section 3.5,
// docs/recovery.md, docs/location.md). Split out of node_handlers.cc so
// each core TU stays one subsystem.
#include <algorithm>

#include "common/log.h"
#include "core/node.h"

namespace khz::core {

using net::Message;
using net::MsgType;
using storage::PageState;

// ---------------------------------------------------------------------------
// Failure detection
// ---------------------------------------------------------------------------

void Node::ping_tick() {
  for (NodeId n : members_) {
    if (n == config_.id) continue;
    rpc(n, MsgType::kPing, {}, [this, n](bool ok, Decoder&) {
      if (ok) {
        missed_pongs_[n] = 0;
        if (down_nodes_.contains(n)) mark_node_up(n);
        return;
      }
      if (++missed_pongs_[n] >= 3 && !down_nodes_.contains(n)) {
        mark_node_down(n);
      }
    });
  }
  ping_timer_ =
      transport_.schedule(config_.ping_interval, [this] { ping_tick(); });
}

void Node::mark_node_down(NodeId node) {
  KHZ_INFO("node %u: peer %u presumed down", config_.id, node);
  down_nodes_.insert(node);
  // Detector verdict reaches the location plane first: tombstone the dead
  // node out of the hint cache so no lookup is steered at it, and so the
  // retraction propagates to the other managers on the next sync round.
  if (const std::size_t n = cluster_.retract_node(node, now()); n > 0) {
    ins_.retractions->inc(n);
  }
  // Promote before the protocol cleanup: the CMs' on_node_down reclaims
  // ownership for homed pages, and promotion may have just made this node
  // the home of regions the dead peer owned.
  maybe_promote_regions(node);
  for (auto& [_, cm] : cms_) cm->on_node_down(node);
}

void Node::mark_node_up(NodeId node) {
  down_nodes_.erase(node);
  missed_pongs_[node] = 0;
  // Reliable sends to this peer paused while it was down; resume them.
  engine_.on_node_up(node);
}

// ---------------------------------------------------------------------------
// Manager hint anti-entropy (docs/location.md)
// ---------------------------------------------------------------------------

void Node::hint_sync_tick() {
  ins_.hint_sync_rounds->inc();
  for (NodeId m : managers()) {
    if (m == config_.id || is_down(m)) continue;
    sync_hints_with(m);
  }
  hint_sync_timer_ = transport_.schedule(config_.hint_sync_interval,
                                         [this] { hint_sync_tick(); });
}

void Node::sync_hints_with(NodeId peer) {
  Encoder e;
  ClusterState::encode_signed(e, cluster_.entries(), config_.id);
  RpcEngine::CallOptions opts;
  opts.max_attempts = 1;  // periodic: a lost round is repaired by the next
  engine_.call(
      {peer}, MsgType::kHintSyncReq, std::move(e).take(),
      [this, peer](bool ok, Decoder& d) {
        if (!ok) return;
        if (d.u8() != 0) return;  // peer rejected our digest
        const auto theirs = ClusterState::decode_signed(d, peer);
        if (!theirs) {
          ins_.hint_sync_rejected->inc();
          return;
        }
        if (theirs->empty()) return;  // sets already matched
        const std::size_t applied = cluster_.merge(
            *theirs, [this](NodeId n) { return is_down(n); });
        if (applied > 0) ins_.hint_sync_merged->inc(applied);
      },
      std::move(opts));
}

void Node::on_hint_sync_req(const Message& m) {
  Decoder d(m.payload);
  const auto theirs = ClusterState::decode_signed(d, m.src);
  Encoder resp;
  if (!theirs) {
    ins_.hint_sync_rejected->inc();
    resp.u8(1);  // malformed or digest mismatch: reject, merge nothing
    resp.u64(0);
    resp.u32(0);
    respond(m, MsgType::kHintSyncResp, std::move(resp).take());
    return;
  }
  const std::size_t applied =
      cluster_.merge(*theirs, [this](NodeId n) { return is_down(n); });
  if (applied > 0) ins_.hint_sync_merged->inc(applied);
  resp.u8(0);
  // Send our (merged) set back only when it still differs from what the
  // peer showed us — equal digests end the exchange with an empty body.
  auto mine = cluster_.entries();
  if (ClusterState::digest_of(mine) == ClusterState::digest_of(*theirs)) {
    mine.clear();
  }
  ClusterState::encode_signed(resp, mine, config_.id);
  respond(m, MsgType::kHintSyncResp, std::move(resp).take());
}

// ---------------------------------------------------------------------------
// Home fail-over (docs/recovery.md)
// ---------------------------------------------------------------------------

void Node::maybe_promote_regions(NodeId dead) {
  // Scan every descriptor this node knows about. The election needs no
  // coordination round: the copy set is listed in the descriptor, the rule
  // ("highest surviving node id in home_nodes") is deterministic, and every
  // surviving node applies it to the same list — so they all converge on
  // the same heir, and only the heir promotes itself.
  for (RegionDescriptor desc : regions_.snapshot()) {
    if (desc.primary_home() != dead) continue;
    if (AddressRange{kMapRegionBase, kMapRegionSize}.contains(
            desc.range.base)) {
      continue;  // the map region's authority is pinned to genesis
    }
    NodeId heir = kNoNode;
    for (NodeId n : desc.home_nodes) {
      if (n == dead || down_nodes_.contains(n)) continue;
      if (heir == kNoNode || n > heir) heir = n;
    }
    if (heir == kNoNode) continue;  // no surviving copy-set member

    // Repoint the local cache at the heir so this node's own retries go to
    // the new home immediately instead of bouncing off the corpse.
    desc.home_nodes.erase(
        std::remove(desc.home_nodes.begin(), desc.home_nodes.end(), dead),
        desc.home_nodes.end());
    desc.home_nodes.erase(
        std::remove(desc.home_nodes.begin(), desc.home_nodes.end(), heir),
        desc.home_nodes.end());
    desc.home_nodes.insert(desc.home_nodes.begin(), heir);
    regions_.insert(desc);

    if (heir == config_.id) promote_region(desc, dead);
  }
}

void Node::promote_region(RegionDescriptor desc, NodeId dead) {
  if (homed_regions_.contains(desc.range.base)) return;  // already home
  desc.allocated = true;  // replicas only exist for allocated pages
  homed_regions_[desc.range.base] = desc;
  meta_.record_region(desc);
  KHZ_INFO("node %u: promoting to home of region %016llx_%016llx (home %u "
           "presumed dead)",
           config_.id, static_cast<unsigned long long>(desc.range.base.hi),
           static_cast<unsigned long long>(desc.range.base.lo), dead);
  regions_.insert(desc);
  metrics_.counter("node.promotions").inc();

  const std::uint32_t psz = desc.attrs.page_size;
  for (GlobalAddress p = desc.range.base; p < desc.range.end();
       p = p.plus(psz)) {
    auto& info = pages_.ensure(p);
    info.homed_locally = true;
    info.home = config_.id;
    info.sharers.erase(dead);
    const bool have_copy =
        info.state != PageState::kInvalid && storage_.get(p) != nullptr;
    if (have_copy) {
      info.sharers.insert(config_.id);
      if (info.owner == dead || info.owner == kNoNode ||
          info.owner == config_.id) {
        info.owner = config_.id;
      }
      // A live exclusive owner elsewhere keeps its authority: its
      // owner-side replica push (from_owner) will reach this node — its
      // cache was repointed by its own maybe_promote_regions — and hand
      // ownership back here with the newest bytes.
      if (info.state == PageState::kExclusive) info.state = PageState::kShared;
      (void)storage_.flush(p);
      journal_page(p);
    } else {
      if (info.owner == dead) info.owner = kNoNode;
      NodeId live_holder = kNoNode;
      for (NodeId s : info.sharers) {
        if (s != config_.id && !down_nodes_.contains(s)) live_holder = s;
      }
      if (info.owner == kNoNode && live_holder != kNoNode) {
        info.owner = live_holder;  // protocol fetches from there on demand
      } else if (info.owner == kNoNode) {
        // Nobody left with a copy (the replica push never reached us):
        // the page's last write is lost with the old home. Re-materialize
        // zeros so the region stays usable.
        KHZ_WARN("node %u: page %016llx_%016llx lost with home %u; "
                 "re-materializing zeros",
                 config_.id, static_cast<unsigned long long>(p.hi),
                 static_cast<unsigned long long>(p.lo), dead);
        info.owner = config_.id;
        info.state = PageState::kShared;
        info.sharers.insert(config_.id);
        store_page(p, Bytes(psz, 0));
      }
    }
  }

  // Advertise the new home: hints to the cluster managers, home list to
  // the address map (release-type: retried in the background).
  publish_hint(desc.range, /*retract=*/false);
  mutate_map(kMapUpdateHomes, desc.range, desc.home_nodes);

  // Honor min_replicas before accepting new writes: gate write grants
  // (write_gated) and kick replica maintenance to rebuild the copyset.
  if (desc.attrs.min_replicas > 1) {
    recovering_regions_.insert(desc.range.base);
    for (GlobalAddress p = desc.range.base; p < desc.range.end();
         p = p.plus(psz)) {
      note_copyset_change(p);
    }
  }
}

}  // namespace khz::core
