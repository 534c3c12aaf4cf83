#include "core/meta_log.h"

#include <utility>

#include "common/log.h"
#include "common/serialize.h"

namespace khz::core {

// Journal record tags (first byte of each record):
//   1  region upsert        (encoded RegionDescriptor)
//   2  region erase         (base address)
//   3  pool snapshot        (u64 granted_bytes, u32 count, count ranges)
//   4  homed page version   (page address, u64 version)
//   5  homed page erase     (page address)
namespace {
constexpr std::uint8_t kJnlRegion = 1;
constexpr std::uint8_t kJnlRegionErase = 2;
constexpr std::uint8_t kJnlPool = 3;
constexpr std::uint8_t kJnlPage = 4;
constexpr std::uint8_t kJnlPageErase = 5;
}  // namespace

MetaLog::MetaLog(storage::StorageHierarchy& storage, NodeId id,
                 SnapshotFn snapshot)
    : storage_(storage), id_(id), snapshot_(std::move(snapshot)) {}

Status MetaLog::checkpoint() {
  auto* disk = storage_.disk();
  if (disk == nullptr) return {};
  const Snapshot snap = snapshot_();
  Encoder e;
  e.u64(snap.granted_bytes);
  e.u32(static_cast<std::uint32_t>(snap.pool.size()));
  for (const auto& r : snap.pool) e.range(r);
  e.u32(static_cast<std::uint32_t>(snap.regions.size()));
  for (const auto& [base, desc] : snap.regions) desc.encode(e);
  e.u32(static_cast<std::uint32_t>(snap.page_versions.size()));
  for (const auto& [p, v] : snap.page_versions) {
    e.addr(p);
    e.u64(v);
  }
  if (Status s = disk->put_meta("node_state", e.data()); !s.ok()) {
    KHZ_WARN("node %u: checkpoint not written; journal kept", id_);
    checkpoint_at_ = disk->journal().appended() + kCompactThreshold;
    return s;
  }
  // The snapshot now covers everything the journal recorded; start fresh.
  checkpoint_at_ = kCompactThreshold;
  return disk->journal().reset();
}

void MetaLog::append(const Bytes& record) {
  auto* disk = storage_.disk();
  if (disk == nullptr) return;
  (void)disk->journal().append(record);
  // The durability policy point: every record, including a page version
  // written after its bytes, funnels through here. Without group commit
  // but with sync it commits inline; with group commit the timer does.
  (void)disk->maybe_commit();
  if (disk->journal().appended() >= checkpoint_at_) (void)checkpoint();
}

void MetaLog::record_region(const location::RegionDescriptor& desc) {
  if (storage_.disk() == nullptr) return;
  Encoder e;
  e.u8(kJnlRegion);
  desc.encode(e);
  append(e.data());
}

void MetaLog::record_region_erase(const GlobalAddress& base) {
  if (storage_.disk() == nullptr) return;
  Encoder e;
  e.u8(kJnlRegionErase);
  e.addr(base);
  append(e.data());
}

void MetaLog::record_pool(std::uint64_t granted_bytes,
                          const std::vector<AddressRange>& pool) {
  if (storage_.disk() == nullptr) return;
  Encoder e;
  e.u8(kJnlPool);
  e.u64(granted_bytes);
  e.u32(static_cast<std::uint32_t>(pool.size()));
  for (const auto& r : pool) e.range(r);
  append(e.data());
}

void MetaLog::record_page(const GlobalAddress& page, Version version) {
  if (storage_.disk() == nullptr) return;
  Encoder e;
  e.u8(kJnlPage);
  e.addr(page);
  e.u64(version);
  append(e.data());
}

void MetaLog::record_page_erase(const GlobalAddress& page) {
  if (storage_.disk() == nullptr) return;
  Encoder e;
  e.u8(kJnlPageErase);
  e.addr(page);
  append(e.data());
}

MetaLog::Snapshot MetaLog::recover() {
  Snapshot out;
  auto* disk = storage_.disk();
  if (disk == nullptr) return out;

  if (const auto blob = disk->get_meta("node_state")) {
    Decoder d(*blob);
    out.granted_bytes = d.u64();
    const std::uint32_t npool = d.u32();
    for (std::uint32_t i = 0; i < npool && d.ok(); ++i) {
      out.pool.push_back(d.range());
    }
    const std::uint32_t nregions = d.u32();
    for (std::uint32_t i = 0; i < nregions && d.ok(); ++i) {
      auto desc = location::RegionDescriptor::decode(d);
      out.regions[desc.range.base] = desc;
    }
    const std::uint32_t npages = d.u32();
    for (std::uint32_t i = 0; i < npages && d.ok(); ++i) {
      const GlobalAddress p = d.addr();
      out.page_versions[p] = d.u64();
    }
    if (!d.ok()) {
      KHZ_WARN("node %u: corrupt node_state metadata ignored", id_);
      return Snapshot{};
    }
  }

  // Replay mutations journalled after the snapshot.
  const std::size_t replayed = disk->journal().replay([&](const Bytes& rec) {
    Decoder d(rec);
    switch (d.u8()) {
      case kJnlRegion: {
        auto desc = location::RegionDescriptor::decode(d);
        if (d.ok()) out.regions[desc.range.base] = desc;
        break;
      }
      case kJnlRegionErase: {
        const GlobalAddress base = d.addr();
        if (!d.ok()) break;
        auto it = out.regions.find(base);
        if (it != out.regions.end()) {
          // The region's pages died with it.
          const AddressRange range = it->second.range;
          out.page_versions.erase(
              out.page_versions.lower_bound(range.base),
              out.page_versions.lower_bound(range.end()));
          out.regions.erase(it);
        }
        break;
      }
      case kJnlPool: {
        const std::uint64_t g = d.u64();
        std::vector<AddressRange> p;
        const std::uint32_t n = d.u32();
        for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
          p.push_back(d.range());
        }
        if (d.ok()) {
          out.granted_bytes = g;
          out.pool = std::move(p);
        }
        break;
      }
      case kJnlPage: {
        const GlobalAddress p = d.addr();
        const Version v = d.u64();
        if (d.ok()) out.page_versions[p] = v;
        break;
      }
      case kJnlPageErase: {
        const GlobalAddress p = d.addr();
        if (d.ok()) out.page_versions.erase(p);
        break;
      }
      default:
        KHZ_WARN("node %u: unknown journal record skipped", id_);
        break;
    }
  });
  if (replayed > 0) {
    KHZ_INFO("node %u: replayed %zu journal records", id_, replayed);
  }
  return out;
}

}  // namespace khz::core
