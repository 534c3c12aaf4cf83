#include "location/address_map.h"

#include <algorithm>
#include <cassert>

namespace khz::location {

// ---------------------------------------------------------------------------
// Node (de)serialization. Layout per fixed-size page:
//   magic u32 | leaf u8 | count u16 | next_free u32 | entries...
// Leaf entry:     base a128 | size u64 | nhomes u8 | homes u32 x nhomes
// Interior entry: min_base a128 | child u32
// ---------------------------------------------------------------------------

Bytes AddressMap::encode(const TreeNode& node) const {
  Encoder e;
  e.u32(kMagic);
  e.u8(node.leaf ? 1 : 0);
  e.u16(static_cast<std::uint16_t>(node.count()));
  e.u32(node.next_free);
  if (node.leaf) {
    for (const auto& le : node.leaf_entries) {
      e.addr(le.range.base);
      e.u64(le.range.size);
      e.u8(static_cast<std::uint8_t>(le.homes.size()));
      for (NodeId h : le.homes) e.u32(h);
    }
  } else {
    for (const auto& ie : node.children) {
      e.addr(ie.min_base);
      e.u32(ie.child);
    }
  }
  Bytes out = std::move(e).take();
  assert(out.size() <= store_.page_size());
  out.resize(store_.page_size(), 0);
  return out;
}

AddressMap::TreeNode AddressMap::decode(const Bytes& data) {
  TreeNode node;
  Decoder d(data);
  if (d.u32() != kMagic) {
    // Unformatted / zero page: treat as an empty leaf so a torn bootstrap
    // fails soft rather than crashing.
    return node;
  }
  node.leaf = d.u8() != 0;
  const std::uint16_t count = d.u16();
  node.next_free = d.u32();
  if (node.leaf) {
    node.leaf_entries.reserve(count);
    for (std::uint16_t i = 0; i < count && d.ok(); ++i) {
      MapEntry me;
      me.range.base = d.addr();
      me.range.size = d.u64();
      const std::uint8_t nhomes = d.u8();
      for (std::uint8_t h = 0; h < nhomes && d.ok(); ++h) {
        me.homes.push_back(d.u32());
      }
      node.leaf_entries.push_back(std::move(me));
    }
  } else {
    node.children.reserve(count);
    for (std::uint16_t i = 0; i < count && d.ok(); ++i) {
      InteriorEntry ie;
      ie.min_base = d.addr();
      ie.child = d.u32();
      node.children.push_back(ie);
    }
  }
  return node;
}

AddressMap::TreeNode AddressMap::load(std::uint32_t index) {
  return decode(store_.read_page(index));
}

void AddressMap::save(std::uint32_t index, const TreeNode& node) {
  store_.write_page(index, encode(node));
}

std::uint32_t AddressMap::alloc_page() {
  TreeNode root = load(0);
  const std::uint32_t page = root.next_free;
  root.next_free = page + 1;
  save(0, root);
  return page;
}

void AddressMap::format(MapPageStore& store) {
  AddressMap map(store);
  TreeNode root;
  root.leaf = true;
  root.next_free = 1;
  map.save(0, root);
}

bool AddressMap::formatted() {
  const Bytes root = store_.read_page(0);
  Decoder d(root);
  return d.u32() == kMagic;
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

std::optional<MapEntry> AddressMap::lookup(const GlobalAddress& addr) {
  std::uint32_t index = 0;
  for (;;) {
    TreeNode node = load(index);
    if (node.leaf) {
      // Last entry with base <= addr.
      const MapEntry* best = nullptr;
      for (const auto& le : node.leaf_entries) {
        if (le.range.base <= addr) {
          best = &le;
        } else {
          break;
        }
      }
      if (best != nullptr && best->range.contains(addr)) return *best;
      return std::nullopt;
    }
    if (node.children.empty()) return std::nullopt;
    // Last child whose min_base <= addr (or the first child).
    std::size_t pick = 0;
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      if (node.children[i].min_base <= addr) {
        pick = i;
      } else {
        break;
      }
    }
    index = node.children[pick].child;
  }
}

bool AddressMap::overlaps(const AddressRange& range) {
  // A reservation overlapping [base, end) either contains `base` or has its
  // own base inside the range. Check both via lookup + scan of the
  // containing leaf's neighbourhood; since entries are disjoint and sorted,
  // checking the entry at or after `base` suffices.
  if (lookup(range.base).has_value()) return true;
  // Find the first entry with base >= range.base by walking the tree the
  // same way lookup does but keeping the successor.
  std::uint32_t index = 0;
  for (;;) {
    TreeNode node = load(index);
    if (node.leaf) {
      for (const auto& le : node.leaf_entries) {
        if (le.range.base >= range.base) {
          return le.range.base < range.end();
        }
      }
      return false;  // no successor in this leaf: treat as free
    }
    if (node.children.empty()) return false;
    std::size_t pick = 0;
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      if (node.children[i].min_base <= range.base) {
        pick = i;
      } else {
        break;
      }
    }
    // If the chosen subtree's entries all precede range.base, the true
    // successor may live in the next sibling; descend into the one that
    // could contain it. For simplicity walk the picked child; if it yields
    // nothing, check the next sibling's min_base.
    if (pick + 1 < node.children.size() &&
        node.children[pick + 1].min_base < range.end()) {
      return true;
    }
    index = node.children[pick].child;
  }
}

std::vector<MapEntry> AddressMap::entries() {
  std::vector<MapEntry> out;
  collect(0, out);
  return out;
}

void AddressMap::collect(std::uint32_t index, std::vector<MapEntry>& out) {
  TreeNode node = load(index);
  if (node.leaf) {
    out.insert(out.end(), node.leaf_entries.begin(), node.leaf_entries.end());
    return;
  }
  for (const auto& child : node.children) collect(child.child, out);
}

std::uint32_t AddressMap::pages_used() { return load(0).next_free; }

AddressMap::WalkStep AddressMap::walk_step(const Bytes& page_data,
                                           const GlobalAddress& addr) {
  WalkStep out;
  const TreeNode node = decode(page_data);
  if (node.leaf) {
    const MapEntry* best = nullptr;
    for (const auto& le : node.leaf_entries) {
      if (le.range.base <= addr) {
        best = &le;
      } else {
        break;
      }
    }
    if (best != nullptr && best->range.contains(addr)) {
      out.found = true;
      out.entry = *best;
    }
    return out;
  }
  if (node.children.empty()) return out;
  std::size_t pick = 0;
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (node.children[i].min_base <= addr) {
      pick = i;
    } else {
      break;
    }
  }
  out.descend = true;
  out.child = node.children[pick].child;
  return out;
}

std::uint32_t AddressMap::height() {
  std::uint32_t h = 1;
  TreeNode node = load(0);
  while (!node.leaf && !node.children.empty()) {
    ++h;
    node = load(node.children.front().child);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Mutation
// ---------------------------------------------------------------------------

Status AddressMap::insert(const AddressRange& range,
                          const std::vector<NodeId>& homes) {
  if (range.size == 0) return ErrorCode::kBadArgument;
  if (homes.size() > kMaxHomes) return ErrorCode::kBadArgument;
  if (overlaps(range)) return ErrorCode::kAlreadyReserved;

  std::optional<Split> split;
  const Status s = insert_rec(0, range, homes, split);
  if (!s.ok()) return s;
  if (split.has_value()) make_root_interior(*split);
  return {};
}

void AddressMap::make_root_interior(const Split& split) {
  TreeNode old_root = load(0);
  TreeNode left = old_root;  // copies entries and leaf-ness
  left.next_free = 0;        // only the root's counter is meaningful
  TreeNode new_root;
  new_root.leaf = false;
  const std::uint32_t left_page = alloc_page();
  // alloc_page rewrote the root header; recompute and save carefully.
  new_root.next_free = left_page + 1;
  save(left_page, left);
  GlobalAddress left_min{0, 0};
  if (left.leaf && !left.leaf_entries.empty()) {
    left_min = left.leaf_entries.front().range.base;
  } else if (!left.leaf && !left.children.empty()) {
    left_min = left.children.front().min_base;
  }
  new_root.children.push_back({left_min, left_page});
  new_root.children.push_back({split.right_min, split.right_page});
  save(0, new_root);
}

Status AddressMap::insert_rec(std::uint32_t index, const AddressRange& range,
                              const std::vector<NodeId>& homes,
                              std::optional<Split>& split) {
  TreeNode node = load(index);
  split.reset();

  if (node.leaf) {
    MapEntry entry{range, homes};
    auto pos = std::lower_bound(
        node.leaf_entries.begin(), node.leaf_entries.end(), entry,
        [](const MapEntry& a, const MapEntry& b) {
          return a.range.base < b.range.base;
        });
    node.leaf_entries.insert(pos, std::move(entry));
    if (node.leaf_entries.size() > kMaxEntries) {
      // Split the leaf: keep the lower half here, move the upper half into
      // a fresh page ("points to the root node of a subtree describing the
      // region in finer detail").
      const std::size_t mid = node.leaf_entries.size() / 2;
      TreeNode right;
      right.leaf = true;
      right.leaf_entries.assign(node.leaf_entries.begin() +
                                    static_cast<std::ptrdiff_t>(mid),
                                node.leaf_entries.end());
      node.leaf_entries.resize(mid);
      const std::uint32_t right_page = alloc_page();
      if (index == 0) node.next_free = right_page + 1;
      save(right_page, right);
      split = Split{right.leaf_entries.front().range.base, right_page};
    }
    save(index, node);
    return {};
  }

  if (node.children.empty()) return ErrorCode::kCorrupt;
  std::size_t pick = 0;
  for (std::size_t i = 0; i < node.children.size(); ++i) {
    if (node.children[i].min_base <= range.base) {
      pick = i;
    } else {
      break;
    }
  }
  std::optional<Split> child_split;
  const Status s =
      insert_rec(node.children[pick].child, range, homes, child_split);
  if (!s.ok()) return s;
  // Reload: a descendant's split may have advanced the allocation counter
  // stored in the root, and if this node IS the root its copy is stale.
  node = load(index);
  if (child_split.has_value()) {
    InteriorEntry ie{child_split->right_min, child_split->right_page};
    auto pos = std::lower_bound(
        node.children.begin(), node.children.end(), ie,
        [](const InteriorEntry& a, const InteriorEntry& b) {
          return a.min_base < b.min_base;
        });
    node.children.insert(pos, ie);
    if (node.children.size() > kMaxEntries) {
      const std::size_t mid = node.children.size() / 2;
      TreeNode right;
      right.leaf = false;
      right.children.assign(
          node.children.begin() + static_cast<std::ptrdiff_t>(mid),
          node.children.end());
      node.children.resize(mid);
      const std::uint32_t right_page = alloc_page();
      if (index == 0) node.next_free = right_page + 1;
      save(right_page, right);
      split = Split{right.children.front().min_base, right_page};
    }
    save(index, node);
  }
  // Keep the first-key separator accurate when the new range became the
  // subtree minimum. A split above may have moved `pick` into the right
  // page; only pick 0 can gain a new minimum, and it stays here.
  if (pick < node.children.size() &&
      range.base < node.children[pick].min_base) {
    node.children[pick].min_base = range.base;
    save(index, node);
  }
  return {};
}

Status AddressMap::erase(const GlobalAddress& base) {
  std::uint32_t index = 0;
  for (;;) {
    TreeNode node = load(index);
    if (node.leaf) {
      for (auto it = node.leaf_entries.begin(); it != node.leaf_entries.end();
           ++it) {
        if (it->range.base == base) {
          node.leaf_entries.erase(it);
          save(index, node);
          return {};
        }
      }
      return ErrorCode::kNotFound;
    }
    if (node.children.empty()) return ErrorCode::kNotFound;
    std::size_t pick = 0;
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      if (node.children[i].min_base <= base) {
        pick = i;
      } else {
        break;
      }
    }
    index = node.children[pick].child;
  }
}

Status AddressMap::update_homes(const GlobalAddress& base,
                                const std::vector<NodeId>& homes) {
  if (homes.size() > kMaxHomes) return ErrorCode::kBadArgument;
  std::uint32_t index = 0;
  for (;;) {
    TreeNode node = load(index);
    if (node.leaf) {
      for (auto& le : node.leaf_entries) {
        if (le.range.base == base) {
          le.homes = homes;
          save(index, node);
          return {};
        }
      }
      return ErrorCode::kNotFound;
    }
    if (node.children.empty()) return ErrorCode::kNotFound;
    std::size_t pick = 0;
    for (std::size_t i = 0; i < node.children.size(); ++i) {
      if (node.children[i].min_base <= base) {
        pick = i;
      } else {
        break;
      }
    }
    index = node.children[pick].child;
  }
}

}  // namespace khz::location
