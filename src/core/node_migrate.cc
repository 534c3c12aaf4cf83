// Region home migration, client-guided replication and graceful
// departure for core::Node. Split out of node_handlers.cc so each core
// TU stays one subsystem.
#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "core/node.h"

namespace khz::core {

using consistency::LockContext;
using consistency::LockMode;
using consistency::ProtocolId;
using consistency::is_write;
using net::Message;
using net::MsgType;
using storage::PageState;

namespace {
std::uint8_t to_wire(ErrorCode e) { return static_cast<std::uint8_t>(e); }
ErrorCode from_wire(std::uint8_t b) { return static_cast<ErrorCode>(b); }

Bytes status_payload(ErrorCode e) {
  Encoder enc;
  enc.u8(to_wire(e));
  return std::move(enc).take();
}
}  // namespace

// ---------------------------------------------------------------------------
// Region home migration
// ---------------------------------------------------------------------------

void Node::on_migrate_req(const Message& m) {
  Decoder d(m.payload);
  const GlobalAddress base = d.addr();
  const NodeId new_home = d.u32();

  auto it = homed_regions_.find(base);
  if (it == homed_regions_.end()) {
    respond(m, MsgType::kMigrateResp, status_payload(ErrorCode::kNotFound));
    return;
  }
  if (new_home == config_.id) {  // no-op move
    respond(m, MsgType::kMigrateResp, status_payload(ErrorCode::kOk));
    return;
  }
  RegionDescriptor desc = it->second;

  // Refuse while any page is locked here (migration needs local
  // quiescence; remote holders are fine — their CREW state rides along).
  const std::uint32_t psz = desc.attrs.page_size;
  for (GlobalAddress p = desc.range.base; p < desc.range.end();
       p = p.plus(psz)) {
    if (auto* info = pages_.find(p); info != nullptr && info->locked()) {
      respond(m, MsgType::kMigrateResp,
              status_payload(ErrorCode::kConflict));
      return;
    }
  }

  // Package the descriptor plus per-page directory state and whatever
  // current page contents this node holds.
  desc.home_nodes.erase(
      std::remove(desc.home_nodes.begin(), desc.home_nodes.end(), new_home),
      desc.home_nodes.end());
  desc.home_nodes.insert(desc.home_nodes.begin(), new_home);
  Encoder e;
  desc.encode(e);
  std::vector<GlobalAddress> page_list;
  for (GlobalAddress p = desc.range.base; p < desc.range.end();
       p = p.plus(psz)) {
    if (pages_.find(p) != nullptr) page_list.push_back(p);
  }
  e.u32(static_cast<std::uint32_t>(page_list.size()));
  for (const auto& p : page_list) {
    const auto* info = pages_.find(p);
    e.addr(p);
    e.u64(info->version);
    e.u32(info->owner == config_.id ? new_home : info->owner);
    std::set<NodeId> sharers = info->sharers;
    if (sharers.erase(config_.id) > 0) sharers.insert(new_home);
    e.u32(static_cast<std::uint32_t>(sharers.size()));
    for (NodeId s : sharers) e.u32(s);
    const bool valid_here = info->state != PageState::kInvalid;
    const Bytes* data = valid_here ? storage_.get(p) : nullptr;
    e.boolean(data != nullptr);
    if (data != nullptr) e.bytes(*data);
  }

  engine_.call({new_home}, MsgType::kMigrateData, std::move(e).take(),
            [this, m, base, new_home](bool ok, Decoder& resp) {
              if (!ok || from_wire(resp.u8()) != ErrorCode::kOk) {
                respond(m, MsgType::kMigrateResp,
                        status_payload(ErrorCode::kUnreachable));
                return;
              }
              // Hand-off complete: drop authority, keep a fresh cache
              // entry pointing at the new home, release local page state.
              auto it2 = homed_regions_.find(base);
              if (it2 != homed_regions_.end()) {
                RegionDescriptor moved = it2->second;
                homed_regions_.erase(it2);
                meta_.record_region_erase(base);
                const std::uint32_t psz2 = moved.attrs.page_size;
                for (GlobalAddress p = moved.range.base;
                     p < moved.range.end(); p = p.plus(psz2)) {
                  storage_.erase(p);
                  pages_.erase(p);
                }
                moved.home_nodes.erase(
                    std::remove(moved.home_nodes.begin(),
                                moved.home_nodes.end(), new_home),
                    moved.home_nodes.end());
                moved.home_nodes.insert(moved.home_nodes.begin(), new_home);
                regions_.insert(moved);

                // Update the map and the manager's hints.
                mutate_map(kMapUpdateHomes, moved.range, moved.home_nodes);
                publish_hint(moved.range, /*retract=*/true);
              }
              respond(m, MsgType::kMigrateResp,
                      status_payload(ErrorCode::kOk));
            });
}

void Node::on_migrate_data(const Message& m) {
  Decoder d(m.payload);
  RegionDescriptor desc = RegionDescriptor::decode(d);
  if (!d.ok() || desc.primary_home() != config_.id) {
    respond(m, MsgType::kMigrateDataResp,
            status_payload(ErrorCode::kBadArgument));
    return;
  }
  homed_regions_[desc.range.base] = desc;
  regions_.insert(desc);

  const std::uint32_t npages = d.u32();
  for (std::uint32_t i = 0; i < npages && d.ok(); ++i) {
    const GlobalAddress p = d.addr();
    const Version version = d.u64();
    const NodeId owner = d.u32();
    std::set<NodeId> sharers;
    const std::uint32_t nsharers = d.u32();
    for (std::uint32_t s = 0; s < nsharers && d.ok(); ++s) {
      sharers.insert(d.u32());
    }
    const bool has_data = d.boolean();
    Bytes data;
    if (has_data) data = d.bytes();
    if (!d.ok()) break;

    auto& info = pages_.ensure(p);
    info.homed_locally = true;
    info.home = config_.id;
    info.version = std::max(info.version, version);
    info.owner = owner;
    info.sharers = std::move(sharers);
    if (has_data) {
      info.state = PageState::kShared;
      store_page(p, std::move(data));
    } else if (info.state == PageState::kInvalid && owner == config_.id) {
      // We are recorded owner but got no bytes (old home had none):
      // materialize zeros so reads have something to serve.
      store_page(p, Bytes(desc.attrs.page_size, 0));
      info.state = PageState::kShared;
    }
  }
  meta_.record_region(desc);

  // Advertise the new home.
  publish_hint(desc.range, /*retract=*/false);

  respond(m, MsgType::kMigrateDataResp, status_payload(ErrorCode::kOk));
}

// ---------------------------------------------------------------------------
// Client-guided replication (the Section 2 "hooks")
// ---------------------------------------------------------------------------

void Node::on_replicate_to_req(const Message& m) {
  Decoder d(m.payload);
  const GlobalAddress base = d.addr();
  const NodeId target = d.u32();

  const auto found = homed_descriptor(base);
  if (!found || found->range.base != base) {
    respond(m, MsgType::kReplicateToResp,
            status_payload(ErrorCode::kNotFound));
    return;
  }
  const RegionDescriptor desc = *found;
  if (target == config_.id) {
    respond(m, MsgType::kReplicateToResp, status_payload(ErrorCode::kOk));
    return;
  }
  // Batch every resident page of the region into as few kReplicaPush
  // messages as the byte cap allows: bulk replication is where the
  // multi-page encoding pays off.
  constexpr std::size_t kPushBytesCap = 1u << 20;
  const std::uint32_t psz = desc.attrs.page_size;
  Encoder batch;
  std::uint32_t batch_n = 0;
  auto flush = [&] {
    if (batch_n == 0) return;
    Encoder e;
    desc.encode(e);
    e.u32(batch_n);
    e.raw(batch.data());
    Message push;
    push.type = MsgType::kReplicaPush;
    push.dst = target;
    push.payload = std::move(e).take();
    send_msg(std::move(push));
    batch = Encoder{};
    batch_n = 0;
  };
  for (GlobalAddress p = desc.range.base; p < desc.range.end();
       p = p.plus(psz)) {
    auto* info = pages_.find(p);
    if (info == nullptr || info->state == PageState::kInvalid) {
      continue;  // no current copy here (an exclusive owner holds it)
    }
    const Bytes* data = storage_.get(p);
    if (data == nullptr) continue;
    batch.addr(p);
    batch.u64(info->version);
    batch.boolean(false);
    batch.bytes(*data);
    ++batch_n;
    info->sharers.insert(target);
    // A pushed copy means the page is no longer exclusive here.
    if (info->state == PageState::kExclusive) {
      info->state = PageState::kShared;
    }
    ins_.replica_pushes->inc();
    if (batch.size() >= kPushBytesCap) flush();
  }
  flush();
  respond(m, MsgType::kReplicateToResp, status_payload(ErrorCode::kOk));
}

// ---------------------------------------------------------------------------
// Graceful departure
// ---------------------------------------------------------------------------

void Node::leave(StatusCb cb) {
  if (config_.id == config_.genesis) {
    cb(ErrorCode::kBadArgument);  // the map authority cannot depart
    return;
  }
  // Round-robin migration targets among the other live members.
  std::vector<NodeId> targets;
  for (NodeId n : membership()) {
    if (n != config_.id) targets.push_back(n);
  }
  if (targets.empty()) {
    cb(ErrorCode::kUnreachable);
    return;
  }
  auto bases = std::make_shared<std::vector<GlobalAddress>>();
  for (const auto& [base, _] : homed_regions_) bases->push_back(base);

  auto finish = [this, cb]() {
    for (NodeId n : members_) {
      if (n == config_.id) continue;
      Message lm;
      lm.type = MsgType::kLeave;
      lm.dst = n;
      send_msg(std::move(lm));
    }
    cb(Status{});
  };

  // Migrate homed regions one at a time; a failed hand-off aborts the
  // departure (the operator can retry — data must never be orphaned).
  // The closure refers to itself weakly (a strong self-capture is a cycle
  // that leaks it); the in-flight migrate callback keeps it alive.
  auto step = std::make_shared<std::function<void(std::size_t)>>();
  *step = [this, bases, targets, finish, self = std::weak_ptr(step),
           cb](std::size_t i) {
    if (i >= bases->size()) {
      finish();
      return;
    }
    const NodeId target = targets[i % targets.size()];
    migrate((*bases)[i], target, [this, i, step = self.lock(), cb](Status s) {
      if (!s.ok()) {
        cb(s);
        return;
      }
      (*step)(i + 1);
    });
  };
  (*step)(0);
}

}  // namespace khz::core
