#include "location/region_directory.h"

namespace khz::location {

void RegionDirectory::bind_metrics(obs::MetricsRegistry& registry) {
  hits_ = &registry.counter("region_dir.hits");
  misses_ = &registry.counter("region_dir.misses");
  evictions_ = &registry.counter("region_dir.evictions");
}

std::optional<RegionDescriptor> RegionDirectory::lookup(
    const GlobalAddress& addr) {
  // Find the last entry with base <= addr, then verify containment.
  auto it = cache_.upper_bound(addr);
  if (it == cache_.begin()) {
    if (misses_ != nullptr) misses_->inc();
    return std::nullopt;
  }
  --it;
  if (!it->second.desc.range.contains(addr)) {
    if (misses_ != nullptr) misses_->inc();
    return std::nullopt;
  }
  lru_.erase(it->second.lru_pos);
  lru_.push_front(it->first);
  it->second.lru_pos = lru_.begin();
  if (hits_ != nullptr) hits_->inc();
  return it->second.desc;
}

void RegionDirectory::insert(const RegionDescriptor& desc) {
  auto it = cache_.find(desc.range.base);
  if (it != cache_.end()) {
    it->second.desc = desc;
    lru_.erase(it->second.lru_pos);
    lru_.push_front(it->first);
    it->second.lru_pos = lru_.begin();
    return;
  }
  lru_.push_front(desc.range.base);
  cache_.emplace(desc.range.base, Entry{desc, lru_.begin()});
  while (capacity_ != 0 && cache_.size() > capacity_) {
    const GlobalAddress victim = lru_.back();
    lru_.pop_back();
    cache_.erase(victim);
    if (evictions_ != nullptr) evictions_->inc();
  }
}

std::vector<RegionDescriptor> RegionDirectory::snapshot() const {
  std::vector<RegionDescriptor> out;
  out.reserve(cache_.size());
  for (const auto& [base, entry] : cache_) out.push_back(entry.desc);
  return out;
}

void RegionDirectory::invalidate(const GlobalAddress& addr) {
  auto it = cache_.upper_bound(addr);
  if (it == cache_.begin()) return;
  --it;
  if (!it->second.desc.range.contains(addr)) return;
  lru_.erase(it->second.lru_pos);
  cache_.erase(it);
}

}  // namespace khz::location
