// Per-node cache of recently used region descriptors (paper, Section 3.2).
//
// "To avoid expensive remote lookups, Khazana maintains a cache of recently
// used region descriptors called the region directory. The region directory
// is not kept globally consistent, and thus may contain stale data, but
// this is not a problem... the use of a stale home pointer will simply
// result in a message being sent to a node that no longer is home to the
// object."
#pragma once

#include <list>
#include <map>
#include <optional>
#include <vector>

#include "location/region.h"
#include "obs/metrics.h"

namespace khz::location {

class RegionDirectory {
 public:
  /// Descriptors a node caches. Picked from a 2048-16384 sweep on
  /// perfbench's kfs-webcache, whose client working set is about 2.1k
  /// regions: at 8192 that workload neither evicts nor asks a manager
  /// (docs/location.md has the sweep and the memory per descriptor).
  static constexpr std::size_t kDefaultCapacity = 8192;

  explicit RegionDirectory(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity) {}

  /// Descriptor of the region containing `addr`, if cached.
  [[nodiscard]] std::optional<RegionDescriptor> lookup(
      const GlobalAddress& addr);

  /// Inserts or refreshes a descriptor (keyed by region base).
  void insert(const RegionDescriptor& desc);

  /// Drops the cached descriptor covering `addr` (stale-hint recovery).
  void invalidate(const GlobalAddress& addr);

  /// Every cached descriptor, for whole-cache scans (home fail-over walks
  /// the cache looking for regions homed on a dead node). Does not touch
  /// LRU order.
  [[nodiscard]] std::vector<RegionDescriptor> snapshot() const;

  [[nodiscard]] std::size_t size() const { return cache_.size(); }

  /// Counts hits, misses and evictions in the owning node's registry
  /// (region_dir.hits / region_dir.misses / region_dir.evictions).
  void bind_metrics(obs::MetricsRegistry& registry);

 private:
  struct Entry {
    RegionDescriptor desc;
    std::list<GlobalAddress>::iterator lru_pos;
  };

  std::size_t capacity_;
  std::map<GlobalAddress, Entry> cache_;  // keyed by region base
  std::list<GlobalAddress> lru_;          // front = most recent
  obs::Counter* hits_ = nullptr;
  obs::Counter* misses_ = nullptr;
  obs::Counter* evictions_ = nullptr;
};

}  // namespace khz::location
