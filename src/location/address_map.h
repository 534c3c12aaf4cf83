// The distributed address map (paper, Section 3.1).
//
// "Khazana maintains a globally distributed data structure called the
// address map... used to keep track of reserved and free regions within the
// global address space [and] to locate the home nodes of regions... The
// address map is implemented as a distributed tree where each subtree
// describes a range of global address space in finer detail. Each tree node
// is of fixed size and contains a set of entries describing disjoint global
// memory regions, each of which contains either a non-exhaustive list of
// home nodes for a reserved region or points to the root node of a subtree
// describing the region in finer detail. The address map itself resides in
// Khazana. A well-known region beginning at address 0 stores the root node
// of the address map tree."
//
// Concretely: a B+-tree of fixed-size (one Khazana page) nodes. Leaf
// entries record reserved regions with up to kMaxHomes home-node hints;
// interior entries point at child tree nodes covering their range in finer
// detail. Free space is the complement of the recorded reservations. The
// tree reads and writes its nodes through the MapPageStore interface, which
// the Khazana node implements over region-0 pages — so the map genuinely
// lives in Khazana and replicates to readers under the relaxed protocol.
//
// The root must stay at page index 0 (its address is the well-known
// bootstrap constant), so a root split allocates two fresh children and
// rewrites the root in place as an interior node.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/global_address.h"
#include "common/result.h"
#include "common/serialize.h"
#include "common/types.h"

namespace khz::location {

/// Backing store for map tree nodes: fixed-size pages addressed by index
/// (index i lives at Khazana address kMapRegionBase + i * page_size).
class MapPageStore {
 public:
  virtual ~MapPageStore() = default;
  [[nodiscard]] virtual Bytes read_page(std::uint32_t index) = 0;
  virtual void write_page(std::uint32_t index, const Bytes& data) = 0;
  [[nodiscard]] virtual std::uint32_t page_size() const = 0;
};

/// One reserved-region record in the map.
struct MapEntry {
  AddressRange range;
  std::vector<NodeId> homes;

  friend bool operator==(const MapEntry&, const MapEntry&) = default;
};

class AddressMap {
 public:
  static constexpr std::uint32_t kMagic = 0x4b5a4d50;  // "KZMP"
  static constexpr std::size_t kMaxHomes = 4;
  static constexpr std::size_t kMaxEntries = 64;

  explicit AddressMap(MapPageStore& store) : store_(store) {}

  /// Initializes an empty tree (root = empty leaf). Genesis-node only.
  static void format(MapPageStore& store);

  /// True if the root page carries a valid map (used to detect an already
  /// formatted store on restart).
  [[nodiscard]] bool formatted();

  /// Records a reservation. Fails with kAlreadyReserved on overlap.
  Status insert(const AddressRange& range, const std::vector<NodeId>& homes);

  /// Removes the reservation whose base is exactly `base`.
  Status erase(const GlobalAddress& base);

  /// Entry whose range contains `addr`, if any.
  [[nodiscard]] std::optional<MapEntry> lookup(const GlobalAddress& addr);

  /// Replaces the home list of the entry based at `base`.
  Status update_homes(const GlobalAddress& base,
                      const std::vector<NodeId>& homes);

  /// Does any reservation overlap `range`?
  [[nodiscard]] bool overlaps(const AddressRange& range);

  /// All reservations, in address order (full scan; diagnostics & tests).
  [[nodiscard]] std::vector<MapEntry> entries();

  /// Number of tree pages in use.
  [[nodiscard]] std::uint32_t pages_used();

  /// Tree height (1 = root is a leaf). Diagnostics.
  [[nodiscard]] std::uint32_t height();

  /// One step of a tree walk over a raw page image, for walkers that fetch
  /// map pages remotely (the client-side lookup of Section 3.2 runs this
  /// against release-consistent replicas of the tree nodes).
  struct WalkStep {
    bool found = false;  // leaf entry containing addr
    MapEntry entry;
    bool descend = false;  // continue at child page index
    std::uint32_t child = 0;
  };
  [[nodiscard]] static WalkStep walk_step(const Bytes& page_data,
                                          const GlobalAddress& addr);

 private:
  struct InteriorEntry {
    GlobalAddress min_base;  // smallest base in the child's subtree
    std::uint32_t child;
  };
  struct TreeNode {
    bool leaf = true;
    std::uint32_t next_free = 1;  // root page only: next unallocated index
    std::vector<MapEntry> leaf_entries;
    std::vector<InteriorEntry> children;

    [[nodiscard]] std::size_t count() const {
      return leaf ? leaf_entries.size() : children.size();
    }
  };

  [[nodiscard]] TreeNode load(std::uint32_t index);
  void save(std::uint32_t index, const TreeNode& node);
  std::uint32_t alloc_page();

  /// Result of a child insert that overflowed and split.
  struct Split {
    GlobalAddress right_min;
    std::uint32_t right_page;
  };
  Status insert_rec(std::uint32_t index, const AddressRange& range,
                    const std::vector<NodeId>& homes,
                    std::optional<Split>& split);
  /// Root-split completion: pushes the root's (already halved) content
  /// down into a fresh left child and rewrites page 0 as an interior node
  /// over {left, right} — the root must stay at its well-known page.
  void make_root_interior(const Split& split);
  void collect(std::uint32_t index, std::vector<MapEntry>& out);

  [[nodiscard]] Bytes encode(const TreeNode& node) const;
  [[nodiscard]] static TreeNode decode(const Bytes& data);

  MapPageStore& store_;
};

}  // namespace khz::location
