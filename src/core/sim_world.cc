#include "core/sim_world.h"

namespace khz::core {

namespace {
NodeConfig make_config(const SimWorldOptions& opts, NodeId id,
                       std::size_t count) {
  NodeConfig cfg;
  cfg.id = id;
  cfg.genesis = 0;
  for (std::size_t m = 0; m < opts.managers && m < count; ++m) {
    cfg.cluster_managers.push_back(static_cast<NodeId>(m));
  }
  for (std::size_t p = 0; p < count; ++p) {
    cfg.peers.push_back(static_cast<NodeId>(p));
  }
  cfg.ram_pages = opts.ram_pages;
  if (!opts.disk_root.empty()) {
    cfg.disk_dir = opts.disk_root / ("node" + std::to_string(id));
  }
  cfg.rpc_timeout = opts.rpc_timeout;
  cfg.max_retries = opts.max_retries;
  cfg.ping_interval = opts.ping_interval;
  cfg.admission_client_queue = opts.admission_client_queue;
  cfg.admission_protocol_queue = opts.admission_protocol_queue;
  cfg.admission_replication_queue = opts.admission_replication_queue;
  cfg.admission_service_us = opts.admission_service_us;
  cfg.sync_metadata = opts.sync_metadata;
  cfg.group_commit_us = opts.group_commit_us;
  cfg.checkpoint_interval = opts.checkpoint_interval;
  cfg.slow_op_threshold_us = opts.slow_op_threshold_us;
  cfg.slow_op_deadline_fraction = opts.slow_op_deadline_fraction;
  cfg.flight_recorder_capacity = opts.flight_recorder_capacity;
  cfg.stats_sample_interval = opts.stats_sample_interval;
  cfg.stats_series_capacity = opts.stats_series_capacity;
  cfg.hint_sync_interval = opts.hint_sync_interval;
  cfg.free_space_ttl = opts.free_space_ttl;
  cfg.compaction_pages_per_tick = opts.compaction_pages_per_tick;
  cfg.seed = opts.seed;
  return cfg;
}
}  // namespace

SimWorld::SimWorld(SimWorldOptions opts)
    : opts_(std::move(opts)), net_(opts_.seed) {
  net_.set_default_link(opts_.link);
  nodes_.reserve(opts_.nodes);
  for (std::size_t i = 0; i < opts_.nodes; ++i) {
    const auto id = static_cast<NodeId>(i);
    auto& transport = net_.add_node(id);
    nodes_.push_back(
        std::make_unique<Node>(make_config(opts_, id, opts_.nodes),
                               transport));
  }
  for (auto& n : nodes_) n->start();
  // Let joins/bootstrap settle.
  net_.run_for(opts_.rpc_timeout);
}

SimWorld::~SimWorld() = default;

void SimWorld::crash_node(NodeId id) {
  net_.set_node_up(id, false);
  nodes_[id] = nullptr;  // volatile state dies with the process
}

void SimWorld::restart_node(NodeId id, bool settle) {
  // Model a crash+reboot: the Node object (all volatile state) is rebuilt
  // from the persistent store; the SimTransport endpoint keeps the node's
  // network identity across the restart. set_node_up(false) is a no-op if
  // the node was already crashed via crash_node (the epoch bumps only on
  // an up->down transition).
  net_.set_node_up(id, false);
  nodes_[id] = nullptr;  // crash: volatile state gone
  net_.set_node_up(id, true);
  auto* ep = net_.endpoint(id);
  nodes_[id] =
      std::make_unique<Node>(make_config(opts_, id, nodes_.size()), *ep);
  nodes_[id]->start();
  if (settle) net_.run_for(opts_.rpc_timeout);
}

void SimWorld::schedule_crash(Micros delay, NodeId id) {
  net_.schedule_global(delay, [this, id] { crash_node(id); });
}

void SimWorld::schedule_restart(Micros delay, NodeId id) {
  // settle=false: the script fires inside a pump; nesting another run_for
  // there would re-enter the event loop.
  net_.schedule_global(delay,
                       [this, id] { restart_node(id, /*settle=*/false); });
}

void SimWorld::schedule_partition(Micros delay, std::set<NodeId> a,
                                  std::set<NodeId> b) {
  net_.schedule_global(delay, [this, a = std::move(a), b = std::move(b)] {
    net_.partition(a, b);
  });
}

void SimWorld::schedule_heal(Micros delay) {
  net_.schedule_global(delay, [this] { net_.clear_partitions(); });
}

bool SimWorld::pump_until(const std::function<bool()>& done,
                          std::size_t limit) {
  return net_.run_until(done, limit);
}

// ---------------------------------------------------------------------------
// Blocking wrappers
// ---------------------------------------------------------------------------

Result<GlobalAddress> SimWorld::reserve(NodeId n, std::uint64_t size,
                                        const RegionAttrs& attrs) {
  std::optional<Result<GlobalAddress>> out;
  node(n).reserve(size, attrs, [&](Result<GlobalAddress> r) {
    out = std::move(r);
  });
  pump_until([&] { return out.has_value(); });
  return out.value_or(Result<GlobalAddress>{ErrorCode::kTimeout});
}

Status SimWorld::unreserve(NodeId n, const GlobalAddress& base) {
  std::optional<Status> out;
  node(n).unreserve(base, [&](Status s) { out = s; });
  pump_until([&] { return out.has_value(); });
  return out.value_or(ErrorCode::kTimeout);
}

Status SimWorld::allocate(NodeId n, const AddressRange& range) {
  std::optional<Status> out;
  node(n).allocate(range, [&](Status s) { out = s; });
  pump_until([&] { return out.has_value(); });
  return out.value_or(ErrorCode::kTimeout);
}

Status SimWorld::deallocate(NodeId n, const AddressRange& range) {
  std::optional<Status> out;
  node(n).deallocate(range, [&](Status s) { out = s; });
  pump_until([&] { return out.has_value(); });
  return out.value_or(ErrorCode::kTimeout);
}

Result<consistency::LockContext> SimWorld::lock(NodeId n,
                                                const AddressRange& range,
                                                consistency::LockMode mode) {
  std::optional<Result<consistency::LockContext>> out;
  node(n).lock(range, mode, [&](Result<consistency::LockContext> r) {
    out = std::move(r);
  });
  pump_until([&] { return out.has_value(); });
  return out.value_or(
      Result<consistency::LockContext>{ErrorCode::kTimeout});
}

void SimWorld::unlock(NodeId n, const consistency::LockContext& ctx) {
  node(n).unlock(ctx);
  // Drain the release-side protocol traffic this triggered.
  net_.run_for(1);
}

Result<Bytes> SimWorld::read(NodeId n, const consistency::LockContext& ctx,
                             std::uint64_t offset, std::uint64_t len) {
  return node(n).read(ctx, offset, len);
}

Status SimWorld::write(NodeId n, const consistency::LockContext& ctx,
                       std::uint64_t offset,
                       std::span<const std::uint8_t> data) {
  return node(n).write(ctx, offset, data);
}

Result<RegionAttrs> SimWorld::getattr(NodeId n, const GlobalAddress& base) {
  std::optional<Result<RegionAttrs>> out;
  node(n).getattr(base, [&](Result<RegionAttrs> r) { out = std::move(r); });
  pump_until([&] { return out.has_value(); });
  return out.value_or(Result<RegionAttrs>{ErrorCode::kTimeout});
}

Status SimWorld::setattr(NodeId n, const GlobalAddress& base,
                         const RegionAttrs& attrs) {
  std::optional<Status> out;
  node(n).setattr(base, attrs, [&](Status s) { out = s; });
  pump_until([&] { return out.has_value(); });
  return out.value_or(ErrorCode::kTimeout);
}

Result<std::vector<NodeId>> SimWorld::locate(NodeId n,
                                             const GlobalAddress& addr) {
  std::optional<Result<std::vector<NodeId>>> out;
  node(n).locate(addr, [&](Result<std::vector<NodeId>> r) {
    out = std::move(r);
  });
  pump_until([&] { return out.has_value(); });
  return out.value_or(Result<std::vector<NodeId>>{ErrorCode::kTimeout});
}

Status SimWorld::migrate(NodeId n, const GlobalAddress& base,
                         NodeId new_home) {
  std::optional<Status> out;
  node(n).migrate(base, new_home, [&](Status s) { out = s; });
  pump_until([&] { return out.has_value(); });
  return out.value_or(ErrorCode::kTimeout);
}

Status SimWorld::replicate_to(NodeId n, const GlobalAddress& base,
                              NodeId target) {
  std::optional<Status> out;
  node(n).replicate_to(base, target, [&](Status s) { out = s; });
  pump_until([&] { return out.has_value(); });
  return out.value_or(ErrorCode::kTimeout);
}

Result<Node::RemoteStats> SimWorld::scrape(NodeId n, NodeId peer,
                                           std::uint8_t flags) {
  std::optional<Result<Node::RemoteStats>> out;
  node(n).scrape_stats(peer, flags, [&](Result<Node::RemoteStats> r) {
    out = std::move(r);
  });
  pump_until([&] { return out.has_value(); });
  return out.value_or(Result<Node::RemoteStats>{ErrorCode::kTimeout});
}

// ---------------------------------------------------------------------------
// Composites
// ---------------------------------------------------------------------------

Result<GlobalAddress> SimWorld::create_region(NodeId n, std::uint64_t size,
                                              const RegionAttrs& attrs) {
  auto base = reserve(n, size, attrs);
  if (!base) return base;
  const std::uint64_t aligned =
      (size + attrs.page_size - 1) / attrs.page_size * attrs.page_size;
  const Status s = allocate(n, {base.value(), aligned});
  if (!s.ok()) return s.error();
  return base;
}

Status SimWorld::put(NodeId n, const AddressRange& range,
                     std::span<const std::uint8_t> data) {
  auto ctx = lock(n, range, consistency::LockMode::kWrite);
  if (!ctx) return ctx.error();
  const Status s = write(n, ctx.value(), 0, data);
  unlock(n, ctx.value());
  return s;
}

Result<Bytes> SimWorld::get(NodeId n, const AddressRange& range) {
  auto ctx = lock(n, range, consistency::LockMode::kRead);
  if (!ctx) return ctx.error();
  auto r = read(n, ctx.value(), 0, range.size);
  unlock(n, ctx.value());
  return r;
}

Result<std::vector<Bytes>> SimWorld::get_many(
    NodeId n, std::vector<AddressRange> ranges) {
  std::optional<Result<std::vector<Bytes>>> out;
  node(n).get_many(std::move(ranges), [&](Result<std::vector<Bytes>> r) {
    out = std::move(r);
  });
  pump_until([&] { return out.has_value(); });
  if (!out) return ErrorCode::kTimeout;
  return std::move(*out);
}

Status SimWorld::put_many(NodeId n, std::vector<RangeWrite> writes) {
  std::optional<Status> out;
  node(n).put_many(std::move(writes), [&](Status s) { out = s; });
  pump_until([&] { return out.has_value(); });
  return out.value_or(ErrorCode::kTimeout);
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

std::string SimWorld::trace_json() const {
  std::vector<obs::Span> spans;
  for (const auto& n : nodes_) {
    if (!n) continue;
    auto s = n->tracer().finished_spans();
    spans.insert(spans.end(), std::make_move_iterator(s.begin()),
                 std::make_move_iterator(s.end()));
  }
  return obs::chrome_trace_json(spans);
}

void SimWorld::sync_net_metrics(NodeId n) {
  auto& reg = node(n).metrics();
  const net::NetStats& s = net_.stats();
  reg.counter("net.messages_sent").set(s.messages_sent);
  reg.counter("net.messages_delivered").set(s.messages_delivered);
  reg.counter("net.messages_dropped").set(s.messages_dropped);
  reg.counter("net.messages_duplicated").set(s.messages_duplicated);
  reg.counter("net.bytes_sent").set(s.bytes_sent);
}

std::string SimWorld::metrics_text(NodeId n) {
  sync_net_metrics(n);
  return node(n).metrics().dump_text();
}

std::string SimWorld::metrics_json(NodeId n) {
  sync_net_metrics(n);
  return node(n).metrics().dump_json();
}

std::string SimWorld::cluster_metrics_json() {
  NodeId scraper = kNoNode;
  for (const auto& n : nodes_) {
    if (n) {
      scraper = n->id();
      break;
    }
  }
  if (scraper == kNoNode) return "{\"cluster\":{},\"nodes\":{}}";
  // The simulator counts traffic globally, not per endpoint. Mirror the
  // net.* counters into the scraper node and zero any stale mirror a prior
  // metrics_text/json call left on another node, so the rollup counts the
  // wire exactly once.
  for (const auto& n : nodes_) {
    if (!n) continue;
    if (n->id() == scraper) {
      sync_net_metrics(scraper);
    } else {
      auto& reg = n->metrics();
      reg.counter("net.messages_sent").set(0);
      reg.counter("net.messages_delivered").set(0);
      reg.counter("net.messages_dropped").set(0);
      reg.counter("net.messages_duplicated").set(0);
      reg.counter("net.bytes_sent").set(0);
    }
  }
  std::vector<obs::NodeSnapshot> snaps;
  for (const auto& n : nodes_) {
    if (!n) continue;
    auto rs = scrape(scraper, n->id(), 0);
    if (!rs.ok()) continue;
    snaps.emplace_back(n->id(), std::move(rs.value().snapshot));
  }
  return '{' + obs::rollup_json_members(snaps) + '}';
}

}  // namespace khz::core
