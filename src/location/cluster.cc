#include "location/cluster.h"

#include <algorithm>

namespace khz::location {

bool ClusterState::apply(const GlobalAddress& base, std::uint64_t size,
                         NodeId node, Micros stamp, bool retracted) {
  Hint& h = hints_[base];
  if (size != 0) h.size = size;
  Record& rec = h.nodes[node];
  if (rec.stamp == stamp && rec.retracted == retracted) return false;
  rec.stamp = stamp;
  rec.retracted = retracted;
  return true;
}

void ClusterState::publish(const GlobalAddress& base, std::uint64_t size,
                           NodeId node, Micros now) {
  Hint& h = hints_[base];
  h.size = size;
  Record& rec = h.nodes[node];
  // Authoritative local update: always wins, and moves strictly forward so
  // anti-entropy propagates it even against an equal foreign stamp.
  rec.stamp = std::max(now, rec.stamp + 1);
  rec.retracted = false;
}

void ClusterState::retract(const GlobalAddress& base, NodeId node,
                           Micros now) {
  auto it = hints_.find(base);
  if (it == hints_.end()) return;
  auto rec_it = it->second.nodes.find(node);
  if (rec_it == it->second.nodes.end()) return;
  rec_it->second.stamp = std::max(now, rec_it->second.stamp + 1);
  rec_it->second.retracted = true;
}

std::size_t ClusterState::retract_node(NodeId node, Micros now) {
  std::size_t retracted = 0;
  for (auto& [base, hint] : hints_) {
    auto it = hint.nodes.find(node);
    if (it == hint.nodes.end() || it->second.retracted) continue;
    it->second.stamp = std::max(now, it->second.stamp + 1);
    it->second.retracted = true;
    ++retracted;
  }
  return retracted;
}

std::vector<NodeId> ClusterState::hint(const GlobalAddress& addr) const {
  auto it = hints_.upper_bound(addr);
  if (it == hints_.begin()) return {};
  --it;
  const AddressRange range{it->first, it->second.size};
  if (!range.contains(addr)) return {};
  std::vector<NodeId> out;
  for (const auto& [node, rec] : it->second.nodes) {
    if (!rec.retracted) out.push_back(node);
  }
  return out;
}

std::vector<ClusterState::Entry> ClusterState::entries() const {
  std::vector<Entry> out;
  for (const auto& [base, hint] : hints_) {
    for (const auto& [node, rec] : hint.nodes) {
      out.push_back({base, hint.size, node, rec.stamp, rec.retracted});
    }
  }
  return out;
}

std::uint64_t ClusterState::digest() const {
  return digest_of(entries());
}

std::uint64_t ClusterState::digest_of(const std::vector<Entry>& in) {
  // FNV-1a over each record, records combined by XOR: order-independent
  // (entries() is sorted anyway, but merges must not perturb the digest of
  // an equal set reached in a different order).
  std::uint64_t acc = 0xcbf29ce484222325ull;
  for (const Entry& e : in) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](std::uint64_t v) {
      for (int i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
      }
    };
    mix(e.base.hi);
    mix(e.base.lo);
    mix(e.size);
    mix(e.node);
    mix(static_cast<std::uint64_t>(e.stamp));
    mix(e.retracted ? 1 : 0);
    acc ^= h;
  }
  return acc;
}

namespace {

std::uint64_t sign(std::uint64_t digest, NodeId signer) {
  std::uint64_t h = digest ^ 0x9e3779b97f4a7c15ull;
  h ^= signer;
  h *= 0x100000001b3ull;
  h ^= h >> 29;
  return h;
}

}  // namespace

void ClusterState::encode_signed(Encoder& e, const std::vector<Entry>& in,
                                 NodeId signer) {
  e.u64(sign(digest_of(in), signer));
  e.u32(static_cast<std::uint32_t>(in.size()));
  for (const Entry& entry : in) {
    e.addr(entry.base);
    e.u64(entry.size);
    e.u32(entry.node);
    e.u64(static_cast<std::uint64_t>(entry.stamp));
    e.boolean(entry.retracted);
  }
}

std::optional<std::vector<ClusterState::Entry>> ClusterState::decode_signed(
    Decoder& d, NodeId signer) {
  const std::uint64_t sig = d.u64();
  std::vector<Entry> out;
  const std::uint32_t n = d.u32();
  for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
    Entry e;
    e.base = d.addr();
    e.size = d.u64();
    e.node = d.u32();
    e.stamp = static_cast<Micros>(d.u64());
    e.retracted = d.boolean();
    out.push_back(e);
  }
  if (!d.ok() || sig != sign(digest_of(out), signer)) return std::nullopt;
  return out;
}

std::size_t ClusterState::merge(const std::vector<Entry>& in,
                                const std::function<bool(NodeId)>& is_down) {
  std::size_t applied = 0;
  for (const Entry& e : in) {
    const bool down = is_down && is_down(e.node);
    const bool retract_it = e.retracted || down;
    auto it = hints_.find(e.base);
    if (it != hints_.end()) {
      auto rec_it = it->second.nodes.find(e.node);
      if (rec_it != it->second.nodes.end() &&
          rec_it->second.stamp >= e.stamp) {
        // Local record is as-new-or-newer: newest wins, keep ours. A
        // locally-down subject still gets force-tombstoned.
        if (down && !rec_it->second.retracted) {
          rec_it->second.retracted = true;
          ++applied;
        }
        continue;
      }
    }
    if (apply(e.base, e.size, e.node, e.stamp, retract_it)) ++applied;
  }
  return applied;
}

void ClusterState::set_free_space_ttl(Micros ttl) {
  free_space_ttl_ = ttl;
}

void ClusterState::report_free_space(NodeId node, std::uint64_t pool_bytes,
                                     Micros now) {
  free_space_[node] = {pool_bytes, now};
}

std::uint64_t ClusterState::free_space_of(NodeId node) const {
  auto it = free_space_.find(node);
  return it == free_space_.end() ? 0 : it->second.bytes;
}

std::optional<NodeId> ClusterState::best_pool_node(std::uint64_t min_bytes,
                                                   Micros now) const {
  std::optional<NodeId> best;
  std::uint64_t best_size = min_bytes;
  for (const auto& [node, offer] : free_space_) {
    if (free_space_ttl_ > 0 && now > offer.stamp + free_space_ttl_) {
      continue;  // ancient offer: the pool may be long gone
    }
    if (offer.bytes >= best_size) {
      best = node;
      best_size = offer.bytes;
    }
  }
  return best;
}

std::size_t ClusterState::hint_count() const {
  std::size_t live = 0;
  for (const auto& [base, hint] : hints_) {
    for (const auto& [node, rec] : hint.nodes) {
      if (!rec.retracted) {
        ++live;
        break;
      }
    }
  }
  return live;
}

}  // namespace khz::location
