// The location fabric: one facade over the whole "where does this address
// live" subsystem (paper, Sections 3.1-3.2).
//
// The fabric owns the three location data structures — the region-directory
// descriptor cache (level 1), the cluster-manager hint cache (level 2), and
// the resolver that walks them plus the address-map tree (level 3) — and
// runs the background work that keeps them honest under churn — hint
// anti-entropy: managers periodically exchange signed digests of their
// hint caches (kHintSyncReq/Resp) and merge newest-wins, so a hint
// published to one manager reaches the others without waiting for a
// client miss, and a failure-detector retraction propagates instead of
// resurrecting. Cached descriptors are never refreshed proactively: a
// stale one costs one bounce to the old home and a re-resolve
// (Section 3.2).
//
// Everything the fabric needs from the node is behind Fabric::Host — a
// narrow interface (identity, clock, timers, failure verdicts, one RPC
// hook) — so the location subsystem has no dependency on core.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/result.h"
#include "common/serialize.h"
#include "common/types.h"
#include "location/cluster.h"
#include "location/region.h"
#include "location/region_directory.h"
#include "location/resolver.h"
#include "net/message.h"
#include "obs/metrics.h"

namespace khz::location {

struct FabricConfig {
  /// Manager-to-manager hint anti-entropy period. 0 disables the exchange
  /// (hints then spread only via client misses, the pre-fabric behaviour).
  Micros hint_sync_interval = 0;
  /// Free-space offers older than this are ignored by placement
  /// (ClusterState::best_pool_node). 0 = offers never expire.
  Micros free_space_ttl = 0;
};

class Fabric final : public Resolver::Host {
 public:
  /// What the fabric needs from the node that embeds it. The resolver-facing
  /// half matches Resolver::Host so the node's single set of overrides
  /// serves both; schedule/cancel/is_down add the timer rail and the
  /// failure detector for the background passes.
  class Host {
   public:
    virtual ~Host() = default;
    [[nodiscard]] virtual NodeId self() const = 0;
    [[nodiscard]] virtual NodeId genesis() const = 0;
    [[nodiscard]] virtual const std::vector<NodeId>& managers() const = 0;
    [[nodiscard]] virtual bool is_manager() const = 0;
    virtual std::vector<NodeId> membership() = 0;
    [[nodiscard]] virtual Micros now() const = 0;
    /// Timer rail: one-shot callback after `delay`; cancel by id.
    virtual std::uint64_t schedule(Micros delay,
                                   std::function<void()> fn) = 0;
    virtual void cancel(std::uint64_t timer_id) = 0;
    /// Failure-detector verdict for `node` right now.
    [[nodiscard]] virtual bool is_down(NodeId node) = 0;
    [[nodiscard]] virtual std::optional<RegionDescriptor> homed_descriptor(
        const GlobalAddress& addr) = 0;
    virtual void fetch_map_page(std::uint32_t index,
                                std::function<void(Result<Bytes>)> cb) = 0;
    virtual void call(std::vector<NodeId> candidates, net::MsgType type,
                      Bytes payload, Resolver::Host::CallHandler handler,
                      Resolver::Host::CallSpec spec) = 0;
  };

  Fabric(Host& host, obs::MetricsRegistry& metrics, FabricConfig config);

  /// Arms the anti-entropy timer (a no-op when its interval is 0, or on a
  /// node that is not a manager). Call after the node's transport is ready.
  void start();
  /// Cancels the anti-entropy timer. Idempotent.
  void stop();

  /// Resolve `addr` to its region descriptor. Counts the resolve and
  /// attributes exactly one hit class via note_resolved.
  void resolve(const GlobalAddress& addr, Resolver::DescCb cb);

  [[nodiscard]] RegionDirectory& regions() { return regions_; }
  [[nodiscard]] ClusterState& cluster() { return cluster_; }
  [[nodiscard]] Resolver& resolver() { return resolver_; }
  [[nodiscard]] const FabricConfig& config() const { return config_; }

  /// Failure-detector verdict hook: tombstones `node` out of the hint
  /// cache (the retraction then propagates on the next sync round).
  void on_node_down(NodeId node);

  /// Server side of one anti-entropy exchange: verifies the signed digest,
  /// merges the peer's records, and returns the kHintSyncResp payload
  /// (status + our signed set when the sets differed).
  [[nodiscard]] Bytes handle_hint_sync(NodeId from, Decoder& d);

  /// Encodes this manager's signed hint set as a kHintSyncReq payload
  /// (exposed for tests; ticks call it via sync_with).
  [[nodiscard]] Bytes encode_hint_sync() const;

  // --- Resolver::Host (forwarded to host_ / owned state) ---
  [[nodiscard]] NodeId self() const override { return host_.self(); }
  [[nodiscard]] NodeId genesis() const override { return host_.genesis(); }
  [[nodiscard]] const std::vector<NodeId>& managers() const override {
    return host_.managers();
  }
  [[nodiscard]] bool is_manager() const override { return host_.is_manager(); }
  std::vector<NodeId> membership() override { return host_.membership(); }
  [[nodiscard]] Micros now() const override { return host_.now(); }
  [[nodiscard]] std::optional<RegionDescriptor> homed_descriptor(
      const GlobalAddress& addr) override {
    return host_.homed_descriptor(addr);
  }
  [[nodiscard]] RegionDirectory& region_cache() override { return regions_; }
  [[nodiscard]] std::vector<NodeId> manager_hint(
      const GlobalAddress& addr) override {
    return cluster_.hint(addr);
  }
  void fetch_map_page(std::uint32_t index,
                      std::function<void(Result<Bytes>)> cb) override {
    host_.fetch_map_page(index, std::move(cb));
  }
  void call(std::vector<NodeId> candidates, net::MsgType type, Bytes payload,
            Resolver::Host::CallHandler handler,
            Resolver::Host::CallSpec spec) override {
    host_.call(std::move(candidates), type, std::move(payload),
               std::move(handler), std::move(spec));
  }
  void note_resolved(HitClass cls, Micros latency) override;

 private:
  /// A digest is "signed" by mixing the signer's node id into it; a payload
  /// whose records do not hash to the signed value is dropped. (A keyed MAC
  /// in spirit; the sim has no key distribution, so the id is the key.)
  [[nodiscard]] static std::uint64_t sign(std::uint64_t digest, NodeId signer);
  static void encode_entries(Encoder& e,
                             const std::vector<ClusterState::Entry>& entries);
  [[nodiscard]] static std::vector<ClusterState::Entry> decode_entries(
      Decoder& d);

  void hint_sync_tick();
  void sync_with(NodeId peer);

  Host& host_;
  FabricConfig config_;
  RegionDirectory regions_;
  ClusterState cluster_;
  Resolver resolver_;

  bool running_ = false;
  std::uint64_t sync_timer_ = 0;

  struct {
    obs::Counter* resolves = nullptr;
    obs::Counter* hits_home = nullptr;
    obs::Counter* hits_region_dir = nullptr;
    obs::Counter* hits_manager = nullptr;
    obs::Counter* hits_map_walk = nullptr;
    obs::Counter* hits_cluster_walk = nullptr;
    obs::Counter* failures = nullptr;
    obs::Counter* hint_sync_rounds = nullptr;
    obs::Counter* hint_sync_merged = nullptr;
    obs::Counter* hint_sync_rejected = nullptr;
    obs::Counter* retractions = nullptr;
  } ins_;
};

}  // namespace khz::location
