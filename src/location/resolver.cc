#include "location/resolver.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/serialize.h"
#include "location/address_map.h"
#include "net/message.h"

namespace khz::location {

using net::MsgType;

namespace {

ErrorCode from_wire(std::uint8_t b) { return static_cast<ErrorCode>(b); }

}  // namespace

Resolver::Resolver(Host& host, RegionDirectory& regions,
                   const ClusterState& hints, obs::MetricsRegistry& metrics)
    : host_(host), regions_(regions), hints_(hints) {
  ins_.resolves = &metrics.counter("location.resolves");
  ins_.terminal = {
      &metrics.counter("location.hits.home"),
      &metrics.counter("location.hits.region_dir"),
      &metrics.counter("location.hits.manager"),
      &metrics.counter("location.hits.map_walk"),
      &metrics.counter("location.hits.cluster_walk"),
      &metrics.counter("location.failures"),
  };
  ins_.region_dir_us = &metrics.histogram("resolve.region_dir_us");
  ins_.manager_hint_us = &metrics.histogram("resolve.manager_hint_us");
  ins_.map_walk_us = &metrics.histogram("resolve.map_walk_us");
  ins_.cluster_walk_us = &metrics.histogram("resolve.cluster_walk_us");
}

obs::Histogram* Resolver::hist_for(HitClass cls) const {
  switch (cls) {
    case HitClass::kRegionDir: return ins_.region_dir_us;
    case HitClass::kManager: return ins_.manager_hint_us;
    case HitClass::kMapWalk: return ins_.map_walk_us;
    case HitClass::kClusterWalk: return ins_.cluster_walk_us;
    case HitClass::kHome:
    case HitClass::kFailed: return nullptr;
  }
  return nullptr;
}

void Resolver::resolve(const GlobalAddress& addr, DescCb cb) {
  ins_.resolves->inc();
  const Micros t0 = host_.now();
  // Level 0: well-known bootstrap region.
  if (AddressRange{kMapRegionBase, kMapRegionSize}.contains(addr)) {
    attribute(HitClass::kHome);
    cb(map_region_descriptor(host_.genesis()));
    return;
  }
  // Level 0b: regions homed here are authoritative.
  if (auto homed = host_.homed_descriptor(addr)) {
    attribute(HitClass::kHome);
    cb(*homed);
    return;
  }
  // Level 1: region directory (possibly stale; used optimistically).
  if (auto cached = regions_.lookup(addr)) {
    // Effectively free, but recording it keeps the hit-class latency mix
    // comparable across the resolve.* histograms.
    ins_.region_dir_us->record(host_.now() - t0);
    attribute(HitClass::kRegionDir);
    cb(*cached);
    return;
  }
  resolve_via_manager(addr, t0, std::move(cb));
}

void Resolver::resolve_via_manager(const GlobalAddress& addr, Micros t0,
                                   DescCb cb) {
  // Level 2: the cluster manager's hint cache.
  if (host_.is_manager()) {
    const auto nodes = hints_.hint(addr);
    if (!nodes.empty()) {
      fetch_descriptor(nodes, addr, t0, HitClass::kManager, std::move(cb));
    } else {
      resolve_via_map_walk(addr, t0, std::move(cb));
    }
    return;
  }
  Encoder e;
  e.addr(addr);
  Host::CallSpec opts;
  // Rotate the candidate order by self id so cold resolves spread across
  // the manager set instead of all landing on the first manager — under
  // churn this is what lets anti-entropy-repaired backups absorb lookups
  // that would otherwise fall through to the map walk.
  std::vector<NodeId> mgrs = host_.managers();
  if (mgrs.size() > 1) {
    std::rotate(mgrs.begin(),
                mgrs.begin() + static_cast<std::ptrdiff_t>(
                                   host_.self() % mgrs.size()),
                mgrs.end());
  }
  // One probe per manager: a miss should fall through to the map walk
  // quickly, not sit in a retry loop against the same hint caches.
  opts.max_attempts = static_cast<int>(mgrs.size());
  host_.call(
      std::move(mgrs), MsgType::kHintQueryReq, std::move(e).take(),
      [this, addr, t0, cb = std::move(cb)](bool ok, Decoder& d) mutable {
        if (ok) {
          const ErrorCode err = from_wire(d.u8());
          if (err == ErrorCode::kOk) {
            std::vector<NodeId> nodes;
            const std::uint32_t n = d.u32();
            for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
              nodes.push_back(d.u32());
            }
            if (!nodes.empty()) {
              fetch_descriptor(std::move(nodes), addr, t0, HitClass::kManager,
                               std::move(cb));
              return;
            }
          }
        }
        // Level 3: walk the address-map tree.
        resolve_via_map_walk(addr, t0, std::move(cb));
      },
      std::move(opts));
}

void Resolver::resolve_via_map_walk(const GlobalAddress& addr, Micros t0,
                                    DescCb cb) {
  map_walk_step(0, addr, 0, t0, std::move(cb));
}

void Resolver::map_walk_step(std::uint32_t page_index, GlobalAddress addr,
                             int depth, Micros t0, DescCb cb) {
  host_.fetch_map_page(
      page_index,
      [this, addr, depth, t0, cb = std::move(cb)](Result<Bytes> r) mutable {
        if (!r) {
          resolve_via_cluster_walk(addr, t0, std::move(cb));
          return;
        }
        const auto step = AddressMap::walk_step(r.value(), addr);
        if (step.found) {
          fetch_descriptor(step.entry.homes, addr, t0, HitClass::kMapWalk,
                           std::move(cb));
          return;
        }
        if (step.descend && depth < 16) {
          map_walk_step(step.child, addr, depth + 1, t0, std::move(cb));
          return;
        }
        // Not in the map (lagging registration) — cluster walk
        // (Section 3.1: "If the set of nodes specified in a given region's
        // address map entry is stale, the region can still be located using
        // a cluster-walk algorithm").
        resolve_via_cluster_walk(addr, t0, std::move(cb));
      });
}

void Resolver::fetch_descriptor(std::vector<NodeId> candidates,
                                const GlobalAddress& addr, Micros t0,
                                HitClass cls, DescCb cb) {
  // Skip self (we would have answered from homed_regions_ already).
  std::erase(candidates, host_.self());
  if (candidates.empty()) {
    resolve_via_cluster_walk(addr, t0, std::move(cb));
    return;
  }
  Encoder e;
  e.addr(addr);
  Host::CallSpec opts;
  // Each candidate gets exactly one probe; the engine rotates through them
  // on timeout or bounce.
  opts.max_attempts = static_cast<int>(candidates.size());
  // Stale hint: "the use of a stale home pointer will simply result in a
  // message being sent to a node that no longer is home" (Section 3.2) —
  // a well-formed non-kOk answer steers to the next candidate.
  opts.accept = [](Decoder d) { return from_wire(d.u8()) == ErrorCode::kOk; };
  host_.call(
      std::move(candidates), MsgType::kDescLookupReq, std::move(e).take(),
      [this, addr, t0, cls, cb = std::move(cb)](bool ok, Decoder& d) mutable {
        if (!ok) {
          resolve_via_cluster_walk(addr, t0, std::move(cb));
          return;
        }
        (void)d.u8();  // status byte; the accept predicate saw kOk
        RegionDescriptor desc = RegionDescriptor::decode(d);
        regions_.insert(desc);
        if (auto* hist = hist_for(cls)) hist->record(host_.now() - t0);
        attribute(cls);
        cb(std::move(desc));
      },
      std::move(opts));
}

void Resolver::resolve_via_cluster_walk(const GlobalAddress& addr, Micros t0,
                                        DescCb cb) {
  std::vector<NodeId> targets;
  for (NodeId n : host_.membership()) {
    if (n != host_.self()) targets.push_back(n);
  }
  if (targets.empty()) {
    attribute(HitClass::kFailed);
    cb(ErrorCode::kUnreachable);
    return;
  }
  struct WalkState {
    std::size_t remaining;
    bool done = false;
    DescCb cb;
  };
  auto st = std::make_shared<WalkState>();
  st->remaining = targets.size();
  st->cb = std::move(cb);
  for (NodeId t : targets) {
    Encoder e;
    e.addr(addr);
    Host::CallSpec opts;
    opts.max_attempts = 1;  // parallel one-shot probes, first hit wins
    host_.call(
        {t}, MsgType::kClusterWalkReq, std::move(e).take(),
        [this, st, t0](bool ok, Decoder& d) {
          if (st->done) return;
          if (ok && d.boolean()) {
            RegionDescriptor desc = RegionDescriptor::decode(d);
            st->done = true;
            regions_.insert(desc);
            ins_.cluster_walk_us->record(host_.now() - t0);
            attribute(HitClass::kClusterWalk);
            st->cb(std::move(desc));
            return;
          }
          if (--st->remaining == 0) {
            st->done = true;
            attribute(HitClass::kFailed);
            st->cb(ErrorCode::kUnreachable);
          }
        },
        std::move(opts));
  }
}

}  // namespace khz::location
