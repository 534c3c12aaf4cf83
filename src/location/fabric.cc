#include "location/fabric.h"

#include <utility>


namespace khz::location {

using net::MsgType;

Fabric::Fabric(Host& host, obs::MetricsRegistry& metrics, FabricConfig config)
    : host_(host),
      config_(config),
      cluster_(),
      resolver_(*this, metrics) {
  cluster_.set_free_space_ttl(config_.free_space_ttl);
  regions_.bind_metrics(metrics);
  ins_.resolves = &metrics.counter("location.resolves");
  ins_.hits_home = &metrics.counter("location.hits.home");
  ins_.hits_region_dir = &metrics.counter("location.hits.region_dir");
  ins_.hits_manager = &metrics.counter("location.hits.manager");
  ins_.hits_map_walk = &metrics.counter("location.hits.map_walk");
  ins_.hits_cluster_walk = &metrics.counter("location.hits.cluster_walk");
  ins_.failures = &metrics.counter("location.failures");
  ins_.hint_sync_rounds = &metrics.counter("location.hint_sync.rounds");
  ins_.hint_sync_merged = &metrics.counter("location.hint_sync.merged");
  ins_.hint_sync_rejected = &metrics.counter("location.hint_sync.rejected");
  ins_.retractions = &metrics.counter("location.retractions");
}

void Fabric::start() {
  if (running_) return;
  running_ = true;
  // Only managers hold a hint cache worth exchanging.
  if (config_.hint_sync_interval > 0 && host_.is_manager()) {
    sync_timer_ =
        host_.schedule(config_.hint_sync_interval, [this] { hint_sync_tick(); });
  }
}

void Fabric::stop() {
  if (!running_) return;
  running_ = false;
  if (sync_timer_ != 0) host_.cancel(sync_timer_);
  sync_timer_ = 0;
}

void Fabric::resolve(const GlobalAddress& addr, Resolver::DescCb cb) {
  ins_.resolves->inc();
  resolver_.resolve(addr, std::move(cb));
}

void Fabric::note_resolved(HitClass cls, Micros latency) {
  (void)latency;  // per-class histograms live in the resolver
  switch (cls) {
    case HitClass::kHome: ins_.hits_home->inc(); break;
    case HitClass::kRegionDir: ins_.hits_region_dir->inc(); break;
    case HitClass::kManager: ins_.hits_manager->inc(); break;
    case HitClass::kMapWalk: ins_.hits_map_walk->inc(); break;
    case HitClass::kClusterWalk: ins_.hits_cluster_walk->inc(); break;
    case HitClass::kFailed: ins_.failures->inc(); break;
  }
}

void Fabric::on_node_down(NodeId node) {
  const std::size_t n = cluster_.retract_node(node, host_.now());
  if (n > 0) ins_.retractions->inc(n);
}

// --- hint anti-entropy ------------------------------------------------------

std::uint64_t Fabric::sign(std::uint64_t digest, NodeId signer) {
  std::uint64_t h = digest ^ 0x9e3779b97f4a7c15ull;
  h ^= signer;
  h *= 0x100000001b3ull;
  h ^= h >> 29;
  return h;
}

void Fabric::encode_entries(Encoder& e,
                            const std::vector<ClusterState::Entry>& entries) {
  e.u32(static_cast<std::uint32_t>(entries.size()));
  for (const auto& entry : entries) {
    e.addr(entry.base);
    e.u64(entry.size);
    e.u32(entry.node);
    e.u64(static_cast<std::uint64_t>(entry.stamp));
    e.boolean(entry.retracted);
  }
}

std::vector<ClusterState::Entry> Fabric::decode_entries(Decoder& d) {
  std::vector<ClusterState::Entry> out;
  const std::uint32_t n = d.u32();
  for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
    ClusterState::Entry e;
    e.base = d.addr();
    e.size = d.u64();
    e.node = d.u32();
    e.stamp = static_cast<Micros>(d.u64());
    e.retracted = d.boolean();
    out.push_back(e);
  }
  return out;
}

Bytes Fabric::encode_hint_sync() const {
  const auto entries = cluster_.entries();
  Encoder e;
  e.u64(sign(ClusterState::digest_of(entries), host_.self()));
  encode_entries(e, entries);
  return std::move(e).take();
}

void Fabric::hint_sync_tick() {
  sync_timer_ = 0;
  if (!running_) return;
  ins_.hint_sync_rounds->inc();
  for (NodeId m : host_.managers()) {
    if (m == host_.self() || host_.is_down(m)) continue;
    sync_with(m);
  }
  sync_timer_ =
      host_.schedule(config_.hint_sync_interval, [this] { hint_sync_tick(); });
}

void Fabric::sync_with(NodeId peer) {
  Resolver::Host::CallSpec opts;
  opts.max_attempts = 1;  // periodic: a lost round is repaired by the next
  host_.call(
      {peer}, MsgType::kHintSyncReq, encode_hint_sync(),
      [this, peer](bool ok, Decoder& d) {
        if (!ok) return;
        if (d.u8() != 0) return;  // peer rejected our digest
        const std::uint64_t sig = d.u64();
        const auto entries = decode_entries(d);
        if (!d.ok() ||
            sig != sign(ClusterState::digest_of(entries), peer)) {
          ins_.hint_sync_rejected->inc();
          return;
        }
        if (entries.empty()) return;  // sets already matched
        const std::size_t applied = cluster_.merge(
            entries, [this](NodeId n) { return host_.is_down(n); });
        if (applied > 0) ins_.hint_sync_merged->inc(applied);
      },
      std::move(opts));
}

Bytes Fabric::handle_hint_sync(NodeId from, Decoder& d) {
  const std::uint64_t sig = d.u64();
  const auto theirs = decode_entries(d);
  Encoder resp;
  if (!d.ok() || sig != sign(ClusterState::digest_of(theirs), from)) {
    ins_.hint_sync_rejected->inc();
    resp.u8(1);  // malformed or digest mismatch: reject, merge nothing
    resp.u64(0);
    resp.u32(0);
    return std::move(resp).take();
  }
  const std::size_t applied = cluster_.merge(
      theirs, [this](NodeId n) { return host_.is_down(n); });
  if (applied > 0) ins_.hint_sync_merged->inc(applied);
  resp.u8(0);
  // Send our (merged) set back only when it still differs from what the
  // peer showed us — equal digests end the exchange with an empty body.
  const auto mine = cluster_.entries();
  if (ClusterState::digest_of(mine) == ClusterState::digest_of(theirs)) {
    const std::vector<ClusterState::Entry> none;
    resp.u64(sign(ClusterState::digest_of(none), host_.self()));
    encode_entries(resp, none);
  } else {
    resp.u64(sign(ClusterState::digest_of(mine), host_.self()));
    encode_entries(resp, mine);
  }
  return std::move(resp).take();
}

}  // namespace khz::location
