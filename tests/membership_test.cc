// Dynamic membership tests (paper, Section 3: "Machines can dynamically
// enter and leave Khazana and contribute/reclaim local resources"):
// graceful departure via region hand-off, join gossip, and the
// level->protocol reconciliation of region attributes.
#include <gtest/gtest.h>

#include "core/client.h"

namespace khz::core {
namespace {

using consistency::ProtocolId;

Bytes fill(std::size_t n, std::uint8_t v) { return Bytes(n, v); }

Status leave(SimWorld& world, NodeId n) {
  std::optional<Status> out;
  world.node(n).leave([&](Status s) { out = s; });
  world.pump_until([&] { return out.has_value(); });
  return out.value_or(ErrorCode::kTimeout);
}

TEST(MembershipTest, GracefulLeaveRehomesRegions) {
  SimWorld world({.nodes = 4});
  auto a = world.create_region(2, 4096);
  auto b = world.create_region(2, 4096);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(world.put(2, {a.value(), 4096}, fill(4096, 0xAA)).ok());
  ASSERT_TRUE(world.put(2, {b.value(), 4096}, fill(4096, 0xBB)).ok());

  ASSERT_TRUE(leave(world, 2).ok());
  world.pump_for(1'000'000);
  world.net().set_node_up(2, false);  // the departed machine powers off

  // Both regions remain fully usable from the survivors.
  auto ra = world.get(1, {a.value(), 4096});
  ASSERT_TRUE(ra.ok()) << to_string(ra.error());
  EXPECT_EQ(ra.value()[0], 0xAA);
  ASSERT_TRUE(world.put(3, {b.value(), 4096}, fill(4096, 0xBC)).ok());
  EXPECT_EQ(world.get(0, {b.value(), 4096}).value()[0], 0xBC);
}

TEST(MembershipTest, PeersDropDepartedNodeFromMembership) {
  SimWorld world({.nodes = 3});
  ASSERT_TRUE(leave(world, 2).ok());
  world.pump_for(500'000);
  for (NodeId n : {0u, 1u}) {
    const auto members = world.node(n).membership();
    EXPECT_EQ(std::count(members.begin(), members.end(), 2u), 0) << n;
  }
}

TEST(MembershipTest, GenesisCannotLeave) {
  SimWorld world({.nodes = 3});
  EXPECT_EQ(leave(world, 0).error(), ErrorCode::kBadArgument);
}

TEST(MembershipTest, LeaveWithNoHomedRegionsIsCheap) {
  SimWorld world({.nodes = 3});
  EXPECT_TRUE(leave(world, 1).ok());
}

TEST(MembershipTest, ConsistencyLevelPicksMatchingProtocol) {
  SimWorld world({.nodes = 2});
  // Client states only the level; Khazana chooses the protocol.
  RegionAttrs relaxed;
  relaxed.level = ConsistencyLevel::kRelaxed;
  auto base = world.create_region(0, 4096, relaxed);
  ASSERT_TRUE(base.ok());
  auto got = world.getattr(1, base.value());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().protocol, ProtocolId::kRelease);

  RegionAttrs eventual;
  eventual.level = ConsistencyLevel::kEventual;
  auto base2 = world.create_region(0, 4096, eventual);
  ASSERT_TRUE(base2.ok());
  auto got2 = world.getattr(1, base2.value());
  ASSERT_TRUE(got2.ok());
  EXPECT_EQ(got2.value().protocol, ProtocolId::kEventual);
}

TEST(MembershipTest, ProtocolWeakerThanLevelRejected) {
  SimWorld world({.nodes = 1});
  RegionAttrs bad;
  bad.level = ConsistencyLevel::kStrict;
  bad.protocol = ProtocolId::kEventual;  // cannot satisfy strict
  EXPECT_EQ(world.reserve(0, 4096, bad).error(), ErrorCode::kBadArgument);

  // A stronger protocol than the level requires is fine.
  RegionAttrs over;
  over.level = ConsistencyLevel::kEventual;
  over.protocol = ProtocolId::kRelease;
  EXPECT_TRUE(world.reserve(0, 4096, over).ok());
}

TEST(MembershipTest, LateJoinerLearnsMembershipAndParticipates) {
  // Start a world, then hand-add a node that was not in anyone's peer
  // list; the join protocol integrates it.
  SimWorld world({.nodes = 3});
  auto& transport = world.net().add_node(7);
  NodeConfig cfg;
  cfg.id = 7;
  cfg.genesis = 0;
  cfg.peers = {0, 7};
  Node late(cfg, transport);
  late.start();
  world.pump_for(1'000'000);

  // The joiner knows everyone; the old nodes know the joiner.
  EXPECT_GE(late.membership().size(), 4u);
  const auto members = world.node(0).membership();
  EXPECT_NE(std::find(members.begin(), members.end(), 7u), members.end());

  // And it can use the store immediately.
  std::optional<Result<GlobalAddress>> out;
  late.reserve(4096, {}, [&](Result<GlobalAddress> r) { out = std::move(r); });
  world.pump_until([&] { return out.has_value(); });
  ASSERT_TRUE(out.has_value());
  EXPECT_TRUE(out->ok());
}

}  // namespace
}  // namespace khz::core
