#include "core/node.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace khz::core {

using consistency::LockContext;
using consistency::LockMode;
using consistency::ProtocolId;
using net::Message;
using net::MsgType;
using storage::PageState;

namespace {

/// Span names like "rpc:DescLookupReq" / "rx:Cm".
std::string span_name(const char* kind, MsgType t) {
  std::string out(kind);
  out += ':';
  out += net::to_string(t);
  return out;
}

/// The engine's retry policy is derived from the node's config: the legacy
/// rpc_timeout/max_retries knobs keep their meaning (per-attempt timeout;
/// total attempts = 1 + retries), and the backoff ladder scales with the
/// timeout so sim configs with tight timeouts back off proportionally.
RpcPolicy make_policy(const NodeConfig& c) {
  RpcPolicy p;
  p.attempt_timeout = c.rpc_timeout;
  p.max_attempts = c.max_retries + 1;
  p.backoff_base = std::max<Micros>(c.rpc_timeout / 8, 1);
  p.backoff_cap = 4 * c.rpc_timeout;
  return p;
}

AdmissionConfig make_admission(const NodeConfig& c) {
  AdmissionConfig a;
  a.client_queue_limit = c.admission_client_queue;
  a.protocol_queue_limit = c.admission_protocol_queue;
  a.replication_queue_limit = c.admission_replication_queue;
  a.service_us = c.admission_service_us;
  return a;
}

/// An empty manager list means the genesis node alone.
NodeConfig with_managers(NodeConfig c) {
  if (c.cluster_managers.empty()) c.cluster_managers = {c.genesis};
  return c;
}

}  // namespace

// ---------------------------------------------------------------------------
// Construction / bootstrap
// ---------------------------------------------------------------------------

Node::Node(NodeConfig config, net::Transport& transport)
    : config_(with_managers(std::move(config))),
      transport_(transport),
      rng_(config_.seed + config_.id * 7919),
      disk_(config_.disk_dir.empty()
                ? nullptr
                : std::make_shared<storage::DiskStore>(config_.disk_dir)),
      storage_(config_.ram_pages, disk_),
      tracer_(config_.id),
      flight_(config_.flight_recorder_capacity),
      series_(config_.stats_series_capacity),
      resolver_(*this, regions_, cluster_, metrics_),
      engine_(*this, make_policy(config_), metrics_),
      meta_(storage_, config_.id, [this] { return snapshot_state(); }),
      admission_(*this, make_admission(config_), metrics_) {
  consistency::register_builtin_protocols();
  if (disk_ != nullptr) configure_disk();
  tracer_.set_clock(&transport_.clock());
  regions_.bind_metrics(metrics_);
  cluster_.set_free_space_ttl(config_.free_space_ttl);
  ins_.reserves = &metrics_.counter("node.reserves");
  ins_.locks_granted = &metrics_.counter("node.locks_granted");
  ins_.locks_failed = &metrics_.counter("node.locks_failed");
  ins_.reads = &metrics_.counter("node.reads");
  ins_.writes = &metrics_.counter("node.writes");
  ins_.replica_pushes = &metrics_.counter("node.replica_pushes");
  ins_.deadline_expired = &metrics_.counter("rpc.deadline_expired.server");
  ins_.reserve_us = &metrics_.histogram("op.reserve_us");
  ins_.lock_read_us = &metrics_.histogram("op.lock.read_us");
  ins_.lock_write_us = &metrics_.histogram("op.lock.write_us");
  ins_.lock_write_shared_us = &metrics_.histogram("op.lock.write_shared_us");
  ins_.read_us = &metrics_.histogram("op.read_us");
  ins_.write_us = &metrics_.histogram("op.write_us");
  ins_.lock_ranges = &metrics_.histogram("op.lock.ranges");
  ins_.lock_pages = &metrics_.histogram("op.lock.pages");
  ins_.lock_window = &metrics_.histogram("op.lock.window_occupancy");
  ins_.scrapes_served = &metrics_.counter("telemetry.scrapes_served");
  ins_.samples = &metrics_.counter("telemetry.samples");
  ins_.slow_ops = &metrics_.counter("node.slow_ops");
  ins_.rpc_attempts = &metrics_.counter("rpc.attempts");
  ins_.rpc_steered = &metrics_.counter("rpc.steered");
  ins_.getattr_us = &metrics_.histogram("op.getattr_us");
  ins_.hint_sync_rounds = &metrics_.counter("location.hint_sync.rounds");
  ins_.hint_sync_merged = &metrics_.counter("location.hint_sync.merged");
  ins_.hint_sync_rejected = &metrics_.counter("location.hint_sync.rejected");
  ins_.retractions = &metrics_.counter("location.retractions");
  members_.insert(config_.id);
  for (NodeId p : config_.peers) members_.insert(p);
  storage_.set_evict_hook([this](const GlobalAddress& page,
                                  const Bytes& data) {
    return evict_hook(page, data);
  });
  transport_.set_handler([this](Message m) { on_message(std::move(m)); });
}

Node::~Node() { stop(); }

void Node::stop() {
  // Engines first: they cancel every pending RPC-attempt, backoff and
  // reliable-send timer, all of which capture `this`. Over a live TCP
  // transport this must run on the executor (TcpWorld does); under the
  // simulator everything is one thread.
  engine_.shutdown();
  admission_.shutdown();
  if (ping_timer_ != 0) {
    transport_.cancel(ping_timer_);
    ping_timer_ = 0;
  }
  if (sample_timer_ != 0) {
    transport_.cancel(sample_timer_);
    sample_timer_ = 0;
  }
  if (hint_sync_timer_ != 0) {
    transport_.cancel(hint_sync_timer_);
    hint_sync_timer_ = 0;
  }
  stop_storage_timers();
}

obs::Histogram* Node::lock_hist(LockMode mode) {
  switch (mode) {
    case LockMode::kWrite: return ins_.lock_write_us;
    case LockMode::kWriteShared: return ins_.lock_write_shared_us;
    default: return ins_.lock_read_us;
  }
}
void Node::start() {
  if (started_) return;
  started_ = true;
  recover_meta();

  if (config_.id == config_.genesis) {
    // Bootstrap region 0: the address map lives in Khazana itself
    // (Section 3.1). On restart an already formatted map is recovered from
    // the persistent store.
    map_store_ = std::make_unique<LocalMapStore>(*this);
    map_ = std::make_unique<AddressMap>(*map_store_);
    homed_regions_[kMapRegionBase] = map_region_descriptor(config_.genesis);
    if (!map_->formatted()) {
      AddressMap::format(*map_store_);
      (void)map_->insert({kMapRegionBase, kMapRegionSize},
                         {config_.genesis});
    }
  } else {
    // Join the system through the genesis node (best-effort; static
    // membership from config.peers already covers the common case).
    rpc(config_.genesis, MsgType::kJoinReq, {},
        [this](bool ok, Decoder& d) {
          if (!ok) return;
          const std::uint32_t n = d.u32();
          for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
            members_.insert(d.u32());
          }
        });
  }

  if (config_.ping_interval > 0) {
    ping_timer_ =
        transport_.schedule(config_.ping_interval, [this] { ping_tick(); });
  }
  if (config_.stats_sample_interval > 0) {
    // Baseline for the first delta; ticks re-arm themselves.
    last_sample_ = metrics_.snapshot();
    sample_timer_ = transport_.schedule(config_.stats_sample_interval,
                                        [this] { sample_tick(); });
  }
  start_storage_timers();
  // Only managers hold a hint cache worth exchanging.
  if (config_.hint_sync_interval > 0 && is_manager()) {
    hint_sync_timer_ = transport_.schedule(config_.hint_sync_interval,
                                           [this] { hint_sync_tick(); });
  }
}

// ---------------------------------------------------------------------------
// CmHost implementation
// ---------------------------------------------------------------------------

void Node::send_cm(NodeId peer, ProtocolId protocol, const GlobalAddress& page,
                   Bytes payload) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(protocol));
  e.addr(page);
  e.raw(payload);
  Message m;
  m.type = MsgType::kCm;
  m.dst = peer;
  m.payload = std::move(e).take();
  send_msg(std::move(m));
}

void Node::send_page_batch(NodeId peer, ProtocolId protocol, bool request,
                           Bytes payload) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(protocol));
  e.raw(payload);
  Message m;
  m.type =
      request ? MsgType::kPageBatchFetchReq : MsgType::kPageBatchFetchResp;
  m.dst = peer;
  m.payload = std::move(e).take();
  send_msg(std::move(m));
}

storage::PageInfo& Node::page_info(const GlobalAddress& page) {
  return pages_.ensure(page);
}

const Bytes* Node::page_data(const GlobalAddress& page) {
  return storage_.get(page);
}

void Node::store_page(const GlobalAddress& page, Bytes data) {
  storage_.put(page, std::move(data));
  if (pages_.ensure(page).homed_locally) {
    // Write-through for pages this node homes: their latest contents must
    // survive a restart (the page directory's persistent subset,
    // Section 3.4). Journal the version so recovery re-serves the page.
    (void)storage_.flush(page);
    journal_page(page);
  }
}

void Node::drop_page(const GlobalAddress& page) { storage_.erase(page); }

NodeId Node::home_of(const GlobalAddress& page) {
  if (AddressRange{kMapRegionBase, kMapRegionSize}.contains(page)) {
    return config_.genesis;
  }
  if (homed_descriptor(page)) return config_.id;
  if (auto desc = regions_.lookup(page)) return desc->primary_home();
  // Last resort: the primary manager can route or Nack; retries recover.
  return managers().front();
}

bool Node::is_home(const GlobalAddress& page) {
  if (AddressRange{kMapRegionBase, kMapRegionSize}.contains(page)) {
    return config_.id == config_.genesis;
  }
  return homed_descriptor(page).has_value();
}

std::vector<NodeId> Node::alternate_homes(const GlobalAddress& page) {
  if (AddressRange{kMapRegionBase, kMapRegionSize}.contains(page)) return {};
  if (auto desc = homed_descriptor(page)) return desc->alternates();
  if (auto desc = regions_.lookup(page)) return desc->alternates();
  return {};
}

std::uint32_t Node::page_size_of(const GlobalAddress& page) {
  if (AddressRange{kMapRegionBase, kMapRegionSize}.contains(page)) {
    return kDefaultPageSize;
  }
  if (auto desc = homed_descriptor(page)) return desc->attrs.page_size;
  if (auto desc = regions_.lookup(page)) return desc->attrs.page_size;
  return kDefaultPageSize;
}

std::uint32_t Node::min_replicas_of(const GlobalAddress& page) {
  if (auto desc = homed_descriptor(page)) return desc->attrs.min_replicas;
  if (auto desc = regions_.lookup(page)) return desc->attrs.min_replicas;
  return 1;
}

std::vector<NodeId> Node::membership() {
  std::vector<NodeId> out;
  for (NodeId n : members_) {
    if (!down_nodes_.contains(n)) out.push_back(n);
  }
  return out;
}

bool Node::write_gated(const GlobalAddress& page) {
  if (recovering_regions_.empty()) return false;
  auto it = homed_regions_.upper_bound(page);
  if (it == homed_regions_.begin()) return false;
  const RegionDescriptor& desc = std::prev(it)->second;
  if (!desc.range.contains(page)) return false;
  if (!recovering_regions_.contains(desc.range.base)) return false;
  // The guarantee is satisfiable only up to the live membership size; a
  // two-node system with min_replicas=3 must not gate forever.
  const auto target = std::min<std::size_t>(desc.attrs.min_replicas,
                                            membership().size());
  const std::uint32_t psz = desc.attrs.page_size;
  for (GlobalAddress p = desc.range.base; p < desc.range.end();
       p = p.plus(psz)) {
    const auto* info = pages_.find(p);
    std::size_t live = 0;
    if (info != nullptr) {
      for (NodeId s : info->sharers) {
        if (!down_nodes_.contains(s)) ++live;
      }
    }
    if (live < target) return true;  // still rebuilding: hold the write
  }
  // Every page of the region meets the replica floor again; lift the gate.
  recovering_regions_.erase(desc.range.base);
  return false;
}

void Node::note_copyset_change(const GlobalAddress& page) {
  // Defer so replica maintenance never runs inside a protocol handler.
  transport_.schedule(0, [this, page] { maintain_replicas(page); });
}

Micros Node::now() const { return transport_.clock().now(); }

std::uint64_t Node::schedule(Micros delay, std::function<void()> fn) {
  return transport_.schedule(delay, std::move(fn));
}

void Node::cancel(std::uint64_t timer_id) { transport_.cancel(timer_id); }

consistency::ConsistencyManager* Node::cm_for(ProtocolId protocol) {
  auto it = cms_.find(protocol);
  if (it != cms_.end()) return it->second.get();
  auto cm = consistency::ProtocolRegistry::instance().create(protocol, *this);
  if (!cm) return nullptr;
  auto* raw = cm.get();
  cms_.emplace(protocol, std::move(cm));
  return raw;
}

// ---------------------------------------------------------------------------
// Messaging plumbing
// ---------------------------------------------------------------------------

void Node::route(Message m) {
  if (m.dst == config_.id) {
    // Self-sends loop back through the scheduler so handlers are never
    // re-entered from within themselves.
    m.src = config_.id;
    transport_.schedule(0, [this, m = std::move(m)]() mutable {
      on_message(std::move(m));
    });
    return;
  }
  transport_.send(std::move(m));
}

void Node::send_msg(Message m) {
  const obs::TraceContext ctx = tracer_.current();
  m.trace_id = ctx.trace_id;
  m.span_id = ctx.span_id;
  route(std::move(m));
}

void Node::on_message(Message msg) {
  if (is_down(msg.src)) mark_node_up(msg.src);

  if (is_response(msg.type)) {
    engine_.on_response(msg);
    return;
  }

  // Drop work whose propagated deadline has already expired: the client's
  // engine has reflected the failure, nobody is waiting for this answer
  // (Section 3.5's "retried then reflected" — the reflection happened).
  if (msg.deadline != 0 && now() > msg.deadline) {
    ins_.deadline_expired->inc();
    return;
  }

  // Admission control: when enabled, queueable classes park in bounded
  // per-class queues (shedding with kNack backpressure under overload) and
  // dispatch from the drain pump. Bypass classes — and everything when
  // admission is off — keep the synchronous path.
  if (admission_.offer(msg)) return;
  dispatch_request(msg);
}

void Node::dispatch_request(const Message& msg) {
  // Nested RPCs issued while serving this request inherit what remains of
  // the caller's budget.
  RpcEngine::DeadlineScope dscope(engine_, msg.deadline);

  // Server side of a hop: everything this request triggers is parented to
  // the caller's wire context. Untraced messages stay untraced.
  const obs::TraceContext wire{msg.trace_id, msg.span_id};
  if (!wire.active()) {
    obs::ScopedTraceContext scope(tracer_, {});
    handle_request(msg);
    return;
  }
  const obs::TraceContext rx =
      tracer_.begin_span(span_name("rx", msg.type), wire);
  {
    obs::ScopedTraceContext scope(tracer_, rx);
    handle_request(msg);
  }
  tracer_.end_span(rx);
}

void Node::dispatch(const net::Message& m) {
  // The admission pump already dropped client-class work that expired in
  // the queue; anything handed here is still worth serving.
  dispatch_request(m);
}

void Node::nack(const net::Message& req) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(ErrorCode::kOverloaded));
  respond(req, MsgType::kNack, std::move(e).take());
}

void Node::handle_request(const Message& msg) {
  switch (msg.type) {
    case MsgType::kCm: {
      Decoder d(msg.payload);
      const auto protocol = static_cast<ProtocolId>(d.u8());
      const GlobalAddress page = d.addr();
      if (auto* cm = cm_for(protocol)) cm->on_message(msg.src, page, d);
      return;
    }
    case MsgType::kPageBatchFetchReq:
    case MsgType::kPageBatchFetchResp: {
      Decoder d(msg.payload);
      const auto protocol = static_cast<ProtocolId>(d.u8());
      if (auto* cm = cm_for(protocol)) {
        if (msg.type == MsgType::kPageBatchFetchReq) {
          cm->on_batch_fetch(msg.src, d);
        } else {
          cm->on_batch_grant(msg.src, d);
        }
      }
      return;
    }
    case MsgType::kPing: {
      respond(msg, MsgType::kPong, {});
      return;
    }
    case MsgType::kJoinReq: return on_join_req(msg);
    case MsgType::kReserveReq: return on_reserve_req(msg);
    case MsgType::kUnreserveReq: return on_unreserve_req(msg);
    case MsgType::kSpaceReq: return on_space_req(msg);
    case MsgType::kMapMutateReq: return on_map_mutate_req(msg);
    case MsgType::kDescLookupReq: return on_desc_lookup_req(msg);
    case MsgType::kHintQueryReq: return on_hint_query_req(msg);
    case MsgType::kHintPublish: return on_hint_publish(msg);
    case MsgType::kHintSyncReq: return on_hint_sync_req(msg);
    case MsgType::kClusterWalkReq: return on_cluster_walk_req(msg);
    case MsgType::kAllocReq: return on_alloc_req(msg);
    case MsgType::kFreeReq: return on_free_req(msg);
    case MsgType::kGetAttrReq: return on_attr_req(msg, /*set=*/false);
    case MsgType::kSetAttrReq: return on_attr_req(msg, /*set=*/true);
    case MsgType::kLocateReq: return on_locate_req(msg);
    case MsgType::kStatsReq: return on_stats_req(msg);
    case MsgType::kReplicaPush: return on_replica_push(msg);
    case MsgType::kReplicaDrop: return on_replica_drop(msg);
    case MsgType::kObjInvokeReq: {
      if (obj_handler_) obj_handler_(msg);
      return;
    }
    case MsgType::kMigrateReq: return on_migrate_req(msg);
    case MsgType::kReplicateToReq: return on_replicate_to_req(msg);
    case MsgType::kMigrateData: return on_migrate_data(msg);
    case MsgType::kLeave: {
      members_.erase(msg.src);
      down_nodes_.erase(msg.src);
      missed_pongs_.erase(msg.src);
      // The CMs clean up protocol state for the departed peer.
      for (auto& [_, cm] : cms_) cm->on_node_down(msg.src);
      return;
    }
    case MsgType::kNodeListGossip: {
      Decoder d(msg.payload);
      const std::uint32_t n = d.u32();
      for (std::uint32_t i = 0; i < n && d.ok(); ++i) members_.insert(d.u32());
      return;
    }
    default:
      KHZ_WARN("node %u: unhandled message type %u from %u", config_.id,
               static_cast<unsigned>(msg.type), msg.src);
  }
}

void Node::rpc(NodeId dst, MsgType type, Bytes payload, RespHandler handler) {
  // Single-attempt semantics on purpose: pings must pace with the detector
  // (and must reach nodes marked down so recovery is noticed), joins and
  // cluster-walk probes have their own fallbacks.
  RpcEngine::CallOptions opts;
  opts.max_attempts = 1;
  opts.ignore_down = true;
  engine_.call({dst}, type, std::move(payload), std::move(handler),
               std::move(opts));
}

void Node::call(std::vector<NodeId> candidates, net::MsgType type,
                Bytes payload, location::Resolver::Host::CallHandler handler,
                location::Resolver::Host::CallSpec spec) {
  RpcEngine::CallOptions opts;
  opts.max_attempts = spec.max_attempts;
  opts.accept = std::move(spec.accept);
  engine_.call(std::move(candidates), type, std::move(payload),
               std::move(handler), std::move(opts));
}

void Node::respond(const Message& req, MsgType type, Bytes payload) {
  Message m;
  m.type = type;
  m.dst = req.src;
  m.rpc_id = req.rpc_id;
  m.payload = std::move(payload);
  send_msg(std::move(m));
}

void Node::app_rpc(NodeId dst, net::MsgType type, Bytes payload,
                   AppRespHandler handler) {
  rpc(dst, type, std::move(payload), std::move(handler));
}

void Node::app_respond(const net::Message& req, net::MsgType type,
                       Bytes payload) {
  respond(req, type, std::move(payload));
}


}  // namespace khz::core
