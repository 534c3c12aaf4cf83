// Two-level local storage hierarchy (paper, Section 3.4).
//
// "There may be different kinds of local storage - main memory, disk, ...
// organized into a storage hierarchy based on access speed. ... When memory
// is full, the local storage system can victimize pages from RAM to disk.
// When the disk cache wants to victimize a page, it must invoke the
// consistency protocol associated with the page to update the list of
// sharers, push any dirty data to remote nodes, etc."
//
// The hierarchy itself is policy-free about consistency: before a page
// leaves the node entirely it calls the evict hook, which the Khazana node
// wires to the page's consistency protocol (push dirty data, update the
// sharer list). A hook returning false vetoes the drop (e.g. the page is
// the last primary replica), in which case the store grows past capacity
// rather than lose data.
#pragma once

#include <functional>
#include <memory>
#include <optional>

#include "storage/disk_store.h"
#include "storage/memory_store.h"

namespace khz::storage {

struct HierarchyStats {
  std::uint64_t ram_hits = 0;
  std::uint64_t disk_hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t ram_to_disk = 0;
  std::uint64_t disk_promotions = 0;
  std::uint64_t evictions = 0;       // pages dropped from the node
  std::uint64_t eviction_vetoes = 0;

  void clear() { *this = HierarchyStats{}; }
};

/// Where a get() found the page.
enum class HitLevel { kRam, kDisk, kMiss };

class StorageHierarchy {
 public:
  /// `disk` may be null (diskless node: victims are dropped via the hook).
  StorageHierarchy(std::size_t ram_capacity_pages,
                   std::shared_ptr<DiskStore> disk);

  /// Called before a page is dropped from the node entirely.
  /// Arguments: page address, current contents. Returns whether the drop
  /// may proceed.
  using EvictHook = std::function<bool(const GlobalAddress&, const Bytes&)>;
  void set_evict_hook(EvictHook hook) { evict_hook_ = std::move(hook); }

  /// Stores a page (RAM level), victimizing as needed.
  void put(const GlobalAddress& page, Bytes data);

  /// RAM first, then disk (with promotion to RAM). Null on miss.
  [[nodiscard]] const Bytes* get(const GlobalAddress& page);

  /// Mutable access for in-place writes. Promotes to RAM if on disk.
  [[nodiscard]] Bytes* get_mutable(const GlobalAddress& page);

  /// Which level holds the page right now (no promotion side effects).
  [[nodiscard]] HitLevel probe(const GlobalAddress& page) const;

  [[nodiscard]] bool contains(const GlobalAddress& page) const;
  void erase(const GlobalAddress& page);

  /// Pins hold a page in RAM (locked pages are not victimization
  /// candidates).
  void pin(const GlobalAddress& page) { ram_.pin(page); }
  void unpin(const GlobalAddress& page) { ram_.unpin(page); }

  /// Writes the page through to the disk level (durability for pages homed
  /// locally). No-op on diskless nodes.
  Status flush(const GlobalAddress& page);

  [[nodiscard]] const HierarchyStats& stats() const { return stats_; }
  HierarchyStats& stats() { return stats_; }
  [[nodiscard]] DiskStore* disk() { return disk_.get(); }
  [[nodiscard]] MemoryStore& ram() { return ram_; }

 private:
  void enforce_capacity();

  MemoryStore ram_;
  std::shared_ptr<DiskStore> disk_;
  EvictHook evict_hook_;
  HierarchyStats stats_;
};

}  // namespace khz::storage
