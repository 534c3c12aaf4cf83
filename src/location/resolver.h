// Three-level location lookup (Section 3.2), extracted from Node.
//
// "To locate the data associated with a particular global address, Khazana
// uses a three-tiered lookup scheme": (0) regions homed locally and the
// well-known map region, (1) the node's region-directory cache of recently
// used descriptors, (2) the cluster manager's hint cache, (3) a walk of the
// address-map tree — with a broadcast cluster walk as the stale-map
// fallback. The Resolver owns levels 1-3 plus descriptor fetching; level 0
// facts (what is homed here, where the genesis is), the descriptor cache
// and the hint cache come from the Host interface — in practice the
// location::Fabric facade — and all remote traffic goes through Host::call,
// which the node backs with its RpcEngine (retries, candidate steering,
// deadline budgets).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/serialize.h"
#include "common/types.h"
#include "location/region.h"
#include "location/region_directory.h"
#include "net/message.h"
#include "obs/metrics.h"

namespace khz::location {

/// Which lookup level finally produced (or failed to produce) the
/// descriptor. One terminal class is attributed per resolve, so the
/// per-class counters sum exactly to the resolve count — the invariant the
/// churn property test asserts.
enum class HitClass : std::uint8_t {
  kHome = 0,         // level 0: homed here or the well-known map region
  kRegionDir = 1,    // level 1: region-directory cache
  kManager = 2,      // level 2: cluster-manager hint
  kMapWalk = 3,      // level 3: address-map tree walk
  kClusterWalk = 4,  // fallback broadcast
  kFailed = 5,       // every level exhausted
};

class Resolver {
 public:
  /// What the lookup path needs from its surroundings. Signatures
  /// deliberately match the equivalent CmHost methods so the fabric's own
  /// host (the node) implements every interface with single overrides.
  class Host {
   public:
    virtual ~Host() = default;
    [[nodiscard]] virtual NodeId self() const = 0;
    [[nodiscard]] virtual NodeId genesis() const = 0;
    [[nodiscard]] virtual const std::vector<NodeId>& managers() const = 0;
    [[nodiscard]] virtual bool is_manager() const = 0;
    virtual std::vector<NodeId> membership() = 0;
    [[nodiscard]] virtual Micros now() const = 0;
    /// The authoritative descriptor if `addr` falls in a region homed on
    /// this node (lookup level 0).
    [[nodiscard]] virtual std::optional<RegionDescriptor> homed_descriptor(
        const GlobalAddress& addr) = 0;
    /// The node's descriptor cache (lookup level 1); fetched descriptors
    /// are inserted here.
    [[nodiscard]] virtual RegionDirectory& region_cache() = 0;
    /// Manager-side hint-cache lookup (level 2, local fast path). Only
    /// consulted when is_manager().
    [[nodiscard]] virtual std::vector<NodeId> manager_hint(
        const GlobalAddress& addr) = 0;
    /// Reads one page of the address map (level 3); readers replicate map
    /// pages through the release protocol.
    virtual void fetch_map_page(std::uint32_t index,
                                std::function<void(Result<Bytes>)> cb) = 0;

    /// One client-side RPC across `candidates`: attempt/steer/backoff
    /// policy lives behind this hook (the node's RpcEngine). The handler
    /// fires exactly once, in the caller's execution context.
    using CallHandler = std::function<void(bool ok, Decoder& d)>;
    struct CallSpec {
      /// 0 = engine default; otherwise the total probe budget.
      int max_attempts = 0;
      /// Optional well-formed-answer predicate: a reply it rejects steers
      /// to the next candidate instead of completing the call.
      std::function<bool(Decoder d)> accept;
    };
    virtual void call(std::vector<NodeId> candidates, net::MsgType type,
                      Bytes payload, CallHandler handler, CallSpec spec) = 0;

    /// Terminal-attribution hook: invoked exactly once per resolve with the
    /// class that produced the descriptor (or kFailed). The fabric turns
    /// these into the location.* counters.
    virtual void note_resolved(HitClass cls, Micros latency) = 0;
  };

  using DescCb = std::function<void(Result<RegionDescriptor>)>;

  Resolver(Host& host, obs::MetricsRegistry& metrics);

  /// Resolves `addr` to its region descriptor, walking the lookup levels
  /// in order. The callback fires in node context, possibly synchronously
  /// (levels 0/1 and the manager's own hint cache are local).
  void resolve(const GlobalAddress& addr, DescCb cb);

 private:
  // `t0` is when resolve() started; each terminal attributes the hit class
  // that actually produced the descriptor and records into that class's
  // latency histogram (`cls` threads the pending class through
  // fetch_descriptor, whose fallback is the cluster walk).
  void resolve_via_manager(const GlobalAddress& addr, Micros t0, DescCb cb);
  void resolve_via_map_walk(const GlobalAddress& addr, Micros t0, DescCb cb);
  void map_walk_step(std::uint32_t page_index, GlobalAddress addr, int depth,
                     Micros t0, DescCb cb);
  void resolve_via_cluster_walk(const GlobalAddress& addr, Micros t0,
                                DescCb cb);
  /// One host call across `candidates` (self excluded): the accept
  /// predicate bounces non-kOk answers so stale hints steer to the next
  /// candidate; total failure falls back to the cluster walk.
  void fetch_descriptor(std::vector<NodeId> candidates,
                        const GlobalAddress& addr, Micros t0, HitClass cls,
                        DescCb cb);
  [[nodiscard]] obs::Histogram* hist_for(HitClass cls) const;

  Host& host_;

  struct {
    obs::Histogram* region_dir_us = nullptr;
    obs::Histogram* manager_hint_us = nullptr;
    obs::Histogram* map_walk_us = nullptr;
    obs::Histogram* cluster_walk_us = nullptr;
  } ins_;
};

}  // namespace khz::location
