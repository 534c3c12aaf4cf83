// Location-lookup tests (paper, Section 3.2): the three-level search —
// region-directory cache, cluster-manager hints, address-map tree walk —
// plus the cluster-walk fallback and stale-hint recovery.
#include <gtest/gtest.h>

#include "core/client.h"

namespace khz::core {
namespace {

using consistency::LockMode;

Bytes fill(std::size_t n, std::uint8_t v) { return Bytes(n, v); }

/// Resolves on node `n` that the given lookup level answered.
std::uint64_t hits(SimWorld& world, NodeId n, const char* level) {
  return world.node(n)
      .metrics()
      .counter(std::string("location.hits.") + level)
      .value();
}

TEST(LookupTest, FirstRemoteAccessUsesManagerHint) {
  SimWorld world({.nodes = 3});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());

  // Node 2 has never heard of the region: its resolve should hit the
  // cluster manager's hint cache (level 2), not the map walk.
  ASSERT_TRUE(world.get(2, {base.value(), 4096}).ok());
  EXPECT_EQ(hits(world, 2, "manager"), 1u);
  EXPECT_EQ(hits(world, 2, "map_walk"), 0u);
}

TEST(LookupTest, SecondAccessHitsRegionDirectory) {
  SimWorld world({.nodes = 3});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.get(2, {base.value(), 4096}).ok());
  const auto walks_before = hits(world, 2, "manager");
  ASSERT_TRUE(world.get(2, {base.value(), 4096}).ok());
  EXPECT_GE(hits(world, 2, "region_dir"), 1u);
  EXPECT_EQ(hits(world, 2, "manager"), walks_before);
}

TEST(LookupTest, MapWalkFindsRegionWhenManagerHintMisses) {
  SimWorld world({.nodes = 3});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  world.pump_for(500'000);  // let the map registration land

  // Erase the manager's hint state to force the level-3 tree walk.
  world.node(0).cluster_state().clear();
  ASSERT_TRUE(world.get(2, {base.value(), 4096}).ok());
  EXPECT_GE(hits(world, 2, "map_walk"), 1u);
}

TEST(LookupTest, ClusterWalkRecoversWhenMapLags) {
  SimWorld world({.nodes = 3});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(1, {base.value(), 4096}, fill(4096, 2)).ok());
  world.pump_for(1'000'000);

  // Simulate a lagging/incomplete map and hint cache: both the manager's
  // hint state and the map entry vanish (e.g. the registration was lost).
  world.node(0).cluster_state().clear();
  ASSERT_TRUE(world.node(0).address_map()->erase(base.value()).ok());

  // Node 2's lookup: directory miss, manager-hint miss, map-walk miss —
  // then the cluster walk finds node 1 ("the region can still be located
  // using a cluster-walk algorithm").
  auto r = world.get(2, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 2);
  EXPECT_GE(hits(world, 2, "cluster_walk"), 1u);
}

TEST(LookupTest, StaleDirectoryEntryRecoversThroughNextCandidate) {
  SimWorld world({.nodes = 4});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(1, {base.value(), 4096}, fill(4096, 6)).ok());
  ASSERT_TRUE(world.get(3, {base.value(), 4096}).ok());

  // Poison node 3's cached descriptor with a wrong home. The stale home
  // responds not-found; the fallback path re-locates the region.
  auto stale = world.node(3).region_directory().lookup(base.value());
  ASSERT_TRUE(stale.has_value());
  stale->home_nodes = {2};  // wrong
  world.node(3).region_directory().insert(*stale);
  // Also invalidate its local page copy so the read needs the home again.
  world.node(3).page_info(base.value()).state =
      storage::PageState::kInvalid;
  world.node(3).storage().erase(base.value());

  auto r = world.get(3, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 6);
}

TEST(LookupTest, ManyRegionsResolveCorrectlyAcrossHomes) {
  SimWorld world({.nodes = 4});
  struct Entry {
    GlobalAddress base;
    NodeId home;
    std::uint8_t tag;
  };
  std::vector<Entry> regions;
  for (int i = 0; i < 24; ++i) {
    const NodeId home = static_cast<NodeId>(i % 4);
    auto base = world.create_region(home, 4096);
    ASSERT_TRUE(base.ok()) << i;
    const auto tag = static_cast<std::uint8_t>(i + 1);
    ASSERT_TRUE(world.put(home, {base.value(), 4096}, fill(4096, tag)).ok());
    regions.push_back({base.value(), home, tag});
  }
  // Every node reads every region.
  for (NodeId reader = 0; reader < 4; ++reader) {
    for (const auto& e : regions) {
      auto r = world.get(reader, {e.base, 4096});
      ASSERT_TRUE(r.ok()) << "reader " << reader;
      EXPECT_EQ(r.value()[0], e.tag);
    }
  }
}

TEST(LookupTest, AddressMapRecordsEveryReservation) {
  SimWorld world({.nodes = 3});
  std::vector<GlobalAddress> bases;
  for (int i = 0; i < 10; ++i) {
    auto base = world.reserve(static_cast<NodeId>(i % 3), 1 << 20);
    ASSERT_TRUE(base.ok());
    bases.push_back(base.value());
  }
  world.pump_for(1'000'000);  // reliable map registrations land
  auto* map = world.node(0).address_map();
  ASSERT_NE(map, nullptr);
  for (const auto& b : bases) {
    EXPECT_TRUE(map->lookup(b).has_value()) << b.str();
  }
  // The bootstrap map region itself is recorded too.
  EXPECT_TRUE(map->lookup(kMapRegionBase).has_value());
}

TEST(LookupTest, UnreserveRemovesMapEntryEventually) {
  SimWorld world({.nodes = 2});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  world.pump_for(1'000'000);
  ASSERT_TRUE(world.node(0).address_map()->lookup(base.value()).has_value());
  ASSERT_TRUE(world.unreserve(1, base.value()).ok());
  world.pump_for(1'000'000);
  EXPECT_FALSE(
      world.node(0).address_map()->lookup(base.value()).has_value());
  EXPECT_TRUE(world.node(0).cluster_state().hint(base.value()).empty());

  // Unreserved from another node: the home drops the region the same way,
  // map entry and the manager's location hint alike.
  auto remote = world.create_region(1, 4096);
  ASSERT_TRUE(remote.ok());
  world.pump_for(1'000'000);
  ASSERT_FALSE(world.node(0).cluster_state().hint(remote.value()).empty());
  ASSERT_TRUE(world.unreserve(0, remote.value()).ok());
  world.pump_for(1'000'000);
  EXPECT_FALSE(
      world.node(0).address_map()->lookup(remote.value()).has_value());
  EXPECT_TRUE(world.node(0).cluster_state().hint(remote.value()).empty());
}

TEST(LookupTest, LargePageSizeRegionsLockWholePages) {
  SimWorld world({.nodes = 2});
  RegionAttrs attrs;
  attrs.page_size = 65536;  // 64 KiB pages (Section 2)
  auto base = world.create_region(0, 1 << 20, attrs);
  ASSERT_TRUE(base.ok());
  // A 1-byte lock spans exactly one 64 KiB page; data written under it is
  // visible remotely.
  ASSERT_TRUE(world.put(1, {base.value(), 65536}, fill(65536, 4)).ok());
  auto r = world.get(0, {base.value().plus(65000), 100});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0], 4);
}

TEST(LookupTest, PoolRefillComesFromClusterManagerInChunks) {
  SimWorld world({.nodes = 3});
  // First reserve triggers a 1 GiB chunk grant (Section 3.1); subsequent
  // reserves carve locally with no further SpaceReq traffic.
  auto b1 = world.reserve(1, 4096);
  ASSERT_TRUE(b1.ok());
  const auto space_reqs =
      world.net().stats().per_type[net::MsgType::kSpaceReq];
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(world.reserve(1, 4096).ok());
  }
  EXPECT_EQ(world.net().stats().per_type[net::MsgType::kSpaceReq],
            space_reqs);
}

TEST(LookupTest, HugeReservationGetsDedicatedChunk) {
  SimWorld world({.nodes = 2});
  const std::uint64_t size = 3ull << 30;  // 3 GiB > pool chunk
  auto base = world.reserve(1, size);
  ASSERT_TRUE(base.ok());
  // And it does not overlap a later normal reservation.
  auto other = world.reserve(1, 4096);
  ASSERT_TRUE(other.ok());
  EXPECT_FALSE(AddressRange({base.value(), size})
                   .contains(other.value()));
}

}  // namespace
}  // namespace khz::core
