// Three-level location lookup (Section 3.2).
//
// "To locate the data associated with a particular global address, Khazana
// uses a three-tiered lookup scheme": (0) regions homed locally and the
// well-known map region, (1) the node's region-directory cache of recently
// used descriptors, (2) the cluster manager's hint cache, (3) a walk of the
// address-map tree — with a broadcast cluster walk as the stale-map
// fallback. The Resolver owns levels 1-3 plus descriptor fetching and reads
// the node's region directory and hint cache directly; level 0 facts (what
// is homed here, where the genesis is) come from the Host interface — the
// node — and all remote traffic goes through Host::call, which the node
// backs with its RpcEngine (retries, candidate steering, deadline budgets).
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "common/result.h"
#include "common/serialize.h"
#include "common/types.h"
#include "location/cluster.h"
#include "location/region.h"
#include "location/region_directory.h"
#include "net/message.h"
#include "obs/metrics.h"

namespace khz::location {

/// Which lookup level finally produced (or failed to produce) the
/// descriptor. One terminal class is attributed per resolve, so the
/// location.hits.* counters plus location.failures sum exactly to
/// location.resolves — the invariant the churn property test asserts.
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
  /// What the lookup path needs from its node. Signatures deliberately
  /// match the equivalent CmHost methods, so the node implements every
  /// interface with single overrides.
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
  };

  using DescCb = std::function<void(Result<RegionDescriptor>)>;

  /// `regions` is the node's descriptor cache (level 1; fetched
  /// descriptors are inserted there) and `hints` its hint cache (level 2,
  /// consulted locally only on a manager).
  Resolver(Host& host, RegionDirectory& regions, const ClusterState& hints,
           obs::MetricsRegistry& metrics);

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
  /// Counts the resolve's terminal class (location.hits.* or
  /// location.failures).
  void attribute(HitClass cls) {
    ins_.terminal[static_cast<std::size_t>(cls)]->inc();
  }
  [[nodiscard]] obs::Histogram* hist_for(HitClass cls) const;

  Host& host_;
  RegionDirectory& regions_;
  const ClusterState& hints_;

  struct {
    obs::Counter* resolves = nullptr;
    /// Indexed by HitClass.
    std::array<obs::Counter*, 6> terminal{};
    obs::Histogram* region_dir_us = nullptr;
    obs::Histogram* manager_hint_us = nullptr;
    obs::Histogram* map_walk_us = nullptr;
    obs::Histogram* cluster_walk_us = nullptr;
  } ins_;
};

}  // namespace khz::location
