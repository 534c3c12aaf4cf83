// Multiple cluster managers (paper, Section 3.1: "Each cluster has one or
// more designated cluster managers"). Hints replicate to every manager;
// address-space grants are partitioned so managers never collide; the
// cluster keeps reserving and resolving through a manager crash.
#include <gtest/gtest.h>

#include "core/client.h"

namespace khz::core {
namespace {

Bytes fill(std::size_t n, std::uint8_t v) { return Bytes(n, v); }

TEST(MultiManagerTest, BothManagersAccumulateHints) {
  SimWorld world({.nodes = 4, .managers = 2});
  auto base = world.create_region(2, 4096);
  ASSERT_TRUE(base.ok());
  world.pump_for(1'000'000);
  EXPECT_FALSE(world.node(0).cluster_state().hint(base.value()).empty());
  EXPECT_FALSE(world.node(1).cluster_state().hint(base.value()).empty());
}

TEST(MultiManagerTest, GrantsFromDifferentManagersAreDisjoint) {
  SimWorld world({.nodes = 4, .managers = 2, .rpc_timeout = 50'000});
  // Force node 2 to get its chunk from the primary and node 3 from the
  // backup, by crashing the primary in between.
  auto a = world.reserve(2, 4096);
  ASSERT_TRUE(a.ok());
  world.net().set_node_up(0, false);
  auto b = world.reserve(3, 4096);
  ASSERT_TRUE(b.ok()) << to_string(b.error());
  world.net().set_node_up(0, true);

  // The two regions come from disjoint manager slabs.
  EXPECT_FALSE(AddressRange({a.value(), 1ull << 30})
                   .overlaps({b.value(), 1ull << 30}));
}

TEST(MultiManagerTest, ReserveSurvivesPrimaryManagerCrash) {
  SimWorld world({.nodes = 4, .managers = 2, .rpc_timeout = 50'000});
  world.net().set_node_up(0, false);
  auto base = world.reserve(3, 4096);
  ASSERT_TRUE(base.ok()) << to_string(base.error());
  ASSERT_TRUE(world.allocate(3, {base.value(), 4096}).ok());
  ASSERT_TRUE(world.put(3, {base.value(), 4096}, fill(4096, 7)).ok());
  // Another node resolves the region through the surviving manager.
  auto r = world.get(2, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 7);
}

TEST(MultiManagerTest, HintQueryFallsOverToBackupManager) {
  SimWorld world({.nodes = 4, .managers = 2, .rpc_timeout = 50'000});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(1, {base.value(), 4096}, fill(4096, 3)).ok());
  world.pump_for(1'000'000);  // hints reach both managers

  world.net().set_node_up(0, false);  // primary manager (and genesis) down
  auto r = world.get(3, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 3);
  EXPECT_GE(
      world.node(3).metrics().counter("location.hits.manager").value(), 1u);
}

TEST(MultiManagerTest, HintSyncMergesOnlySetsSignedBySender) {
  SimWorldOptions opts;
  opts.nodes = 3;
  opts.managers = 2;
  SimWorld world(opts);
  // Node 2 offers manager 0 a hint set, signed first as node 1 (a forgery:
  // the request comes from node 2), then as itself.
  const ClusterState::Entry record{
      .base = {0, 1ull << 40}, .size = 4096, .node = 2, .stamp = 1};
  const auto offer = [&](NodeId signer) {
    Encoder e;
    ClusterState::encode_signed(e, {record}, signer);
    std::optional<std::uint8_t> status;
    world.node(2).app_rpc(0, net::MsgType::kHintSyncReq, std::move(e).take(),
                          [&](bool ok, Decoder& d) {
                            if (ok) status = d.u8();
                          });
    EXPECT_TRUE(world.pump_until([&] { return status.has_value(); }));
    return status.value_or(0xff);
  };
  auto& rejected =
      world.node(0).metrics().counter("location.hint_sync.rejected");

  EXPECT_EQ(offer(1), 1);  // rejected
  EXPECT_EQ(rejected.value(), 1u);
  EXPECT_TRUE(world.node(0).cluster_state().hint(record.base).empty());

  EXPECT_EQ(offer(2), 0);  // accepted and merged
  EXPECT_EQ(rejected.value(), 1u);
  EXPECT_EQ(world.node(0).cluster_state().hint(record.base),
            std::vector<NodeId>{2});
}

TEST(MultiManagerTest, SingleManagerConfigStillWorks) {
  SimWorld world({.nodes = 3, .managers = 1});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(2, {base.value(), 4096}, fill(4096, 1)).ok());
  EXPECT_EQ(world.get(0, {base.value(), 4096}).value()[0], 1);
}

TEST(MultiManagerTest, ManyReservationsAcrossManagersStayDisjoint) {
  SimWorld world({.nodes = 6, .managers = 3, .rpc_timeout = 50'000});
  std::vector<AddressRange> ranges;
  for (int i = 0; i < 12; ++i) {
    // Rotate which manager is reachable so grants come from all slabs.
    const NodeId down = static_cast<NodeId>(i % 3);
    world.net().set_node_up(down, false);
    const NodeId reserver = static_cast<NodeId>(3 + i % 3);
    auto base = world.reserve(reserver, 1 << 20);
    world.net().set_node_up(down, true);
    ASSERT_TRUE(base.ok()) << i;
    ranges.push_back({base.value(), 1 << 20});
  }
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    for (std::size_t j = i + 1; j < ranges.size(); ++j) {
      EXPECT_FALSE(ranges[i].overlaps(ranges[j]))
          << ranges[i].str() << " vs " << ranges[j].str();
    }
  }
}

}  // namespace
}  // namespace khz::core
