// Failure-handling tests (paper, Section 3.5): acquire errors reflected
// after retries, release errors retried in the background, min-replica
// availability across crashes, partition behaviour, and restart recovery
// from persistent storage.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>

#include "core/client.h"

namespace khz::core {
namespace {

using consistency::LockMode;

namespace fs = std::filesystem;

Bytes fill(std::size_t n, std::uint8_t v) { return Bytes(n, v); }

class TempDir {
 public:
  TempDir() {
    // Pid-qualified: ctest runs each case in its own process, so a static
    // counter alone collides across concurrently running cases.
    dir_ = fs::temp_directory_path() /
           ("khz_failure_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
};

TEST(FailureTest, AcquireOnDeadHomeFailsBackToClientAfterRetries) {
  SimWorld world({.nodes = 3, .rpc_timeout = 50'000});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());

  world.net().set_node_up(1, false);  // kill the home; no replicas exist
  auto ctx = world.lock(2, {base.value(), 4096}, LockMode::kRead);
  ASSERT_FALSE(ctx.ok());
  EXPECT_EQ(ctx.error(), ErrorCode::kUnreachable);
}

TEST(FailureTest, MinReplicasKeepDataReadableAfterHomeCrash) {
  SimWorld world({.nodes = 4});
  RegionAttrs attrs;
  attrs.min_replicas = 3;
  auto base = world.create_region(1, 4096, attrs);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(1, {base.value(), 4096}, fill(4096, 0x42)).ok());
  world.pump_for(2'000'000);  // let replica maintenance settle

  world.net().set_node_up(1, false);
  auto r = world.get(2, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0x42);
}

TEST(FailureTest, ReplicaCountIsMaintainedAfterWrites) {
  SimWorld world({.nodes = 5});
  RegionAttrs attrs;
  attrs.min_replicas = 3;
  auto base = world.create_region(0, 4096, attrs);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), 4096}, fill(4096, 1)).ok());
  world.pump_for(2'000'000);

  auto holders = world.locate(0, base.value());
  ASSERT_TRUE(holders.ok());
  EXPECT_GE(holders.value().size(), 3u);
}

TEST(FailureTest, RemoteWriterTriggersReplication) {
  // The replication path when the dirty release happens away from the
  // home: the owner pushes the data home and the home fans out.
  SimWorld world({.nodes = 4});
  RegionAttrs attrs;
  attrs.min_replicas = 2;
  auto base = world.create_region(0, 4096, attrs);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(3, {base.value(), 4096}, fill(4096, 7)).ok());
  world.pump_for(2'000'000);

  // Kill the writer; the home must still serve the written data.
  world.net().set_node_up(3, false);
  auto r = world.get(2, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 7);
}

TEST(FailureTest, UnreserveToDeadHomeRetriesInBackground) {
  SimWorld world({.nodes = 3, .rpc_timeout = 50'000});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  // Make node 2 aware of the region so the release op can start.
  ASSERT_TRUE(world.get(2, {base.value(), 4096}).ok());

  world.net().set_node_up(1, false);
  // Release-type op: accepted immediately despite the dead home...
  auto s = world.unreserve(2, base.value());
  EXPECT_TRUE(s.ok());
  EXPECT_GT(world.node(2).background_queue_depth(), 0u);

  // ...and retried in the background until the home returns.
  world.pump_for(500'000);
  EXPECT_GT(world.node(2).background_queue_depth(), 0u);  // still trying
  world.net().set_node_up(1, true);
  world.pump_for(2'000'000);
  EXPECT_EQ(world.node(2).background_queue_depth(), 0u);  // drained
  EXPECT_GT(
      world.node(2).metrics().counter("node.background_retries").value(),
      0u);
}

TEST(FailureTest, SharerCrashDuringInvalidationDoesNotWedgeWrites) {
  SimWorld world({.nodes = 4, .rpc_timeout = 50'000});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  // Nodes 2 and 3 cache the page.
  ASSERT_TRUE(world.get(2, {base.value(), 4096}).ok());
  ASSERT_TRUE(world.get(3, {base.value(), 4096}).ok());
  // Node 3 dies; node 1's write must still complete (the home times the
  // dead sharer out of the copyset).
  world.net().set_node_up(3, false);
  auto s = world.put(1, {base.value(), 4096}, fill(4096, 5));
  EXPECT_TRUE(s.ok());
}

TEST(FailureTest, OwnerCrashFallsBackToHomeCopy) {
  SimWorld world({.nodes = 4, .rpc_timeout = 50'000});
  RegionAttrs attrs;
  attrs.min_replicas = 2;  // ensures the home keeps a current copy
  auto base = world.create_region(0, 4096, attrs);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(2, {base.value(), 4096}, fill(4096, 9)).ok());
  world.pump_for(1'000'000);

  world.net().set_node_up(2, false);  // kill the last writer
  auto r = world.get(3, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 9);
}

TEST(FailureTest, PartitionedClientFailsMinorityOpsThenHeals) {
  SimWorld world({.nodes = 4, .rpc_timeout = 50'000});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), 4096}, fill(4096, 3)).ok());

  // Node 3 alone on the far side of a partition: cold reads fail.
  world.net().partition({0, 1, 2}, {3});
  auto r = world.get(3, {base.value(), 4096});
  EXPECT_FALSE(r.ok());

  // Partition heals; the same read succeeds.
  world.net().clear_partitions();
  auto r2 = world.get(3, {base.value(), 4096});
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.value()[0], 3);
}

TEST(FailureTest, GenesisRestartRecoversMapAndRegionsFromDisk) {
  TempDir tmp;
  SimWorld world({.nodes = 3, .disk_root = tmp.path()});
  auto base = world.create_region(0, 8192);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), 8192}, fill(8192, 0x5C)).ok());

  world.restart_node(0);

  // The region, its backing pages and the address map all survive the
  // genesis node's crash+reboot.
  auto r = world.get(0, {base.value(), 8192});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0x5C);
  ASSERT_NE(world.node(0).address_map(), nullptr);
  EXPECT_TRUE(
      world.node(0).address_map()->lookup(base.value()).has_value());
}

TEST(FailureTest, NonGenesisRestartRecoversItsHomedRegions) {
  TempDir tmp;
  SimWorld world({.nodes = 3, .disk_root = tmp.path()});
  auto base = world.create_region(2, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(2, {base.value(), 4096}, fill(4096, 0x77)).ok());

  world.restart_node(2);

  // A remote client can still reach the region through the restarted home.
  auto r = world.get(1, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0x77);
}

TEST(FailureTest, DisklessRestartLosesStateButClusterSurvives) {
  SimWorld world({.nodes = 3});
  auto base = world.create_region(2, 4096);
  ASSERT_TRUE(base.ok());
  world.restart_node(2);
  // The region died with its diskless home...
  auto r = world.get(1, {base.value(), 4096});
  EXPECT_FALSE(r.ok());
  // ...but the cluster still functions: new regions work fine.
  auto base2 = world.create_region(1, 4096);
  ASSERT_TRUE(base2.ok());
  EXPECT_TRUE(world.put(2, {base2.value(), 4096}, fill(4096, 1)).ok());
}

TEST(FailureTest, PingFailureDetectorMarksAndHealsPeers) {
  SimWorld world({.nodes = 3, .rpc_timeout = 20'000,
                  .ping_interval = 50'000});
  world.pump_for(200'000);
  EXPECT_EQ(world.node(0).members().size(), 3u);

  world.net().set_node_up(2, false);
  world.pump_for(1'000'000);
  // Node 0's membership view excludes the dead peer.
  bool seen = false;
  for (NodeId n : world.node(0).membership()) seen |= n == 2;
  EXPECT_FALSE(seen);

  world.net().set_node_up(2, true);
  world.pump_for(1'000'000);
  seen = false;
  for (NodeId n : world.node(0).membership()) seen |= n == 2;
  EXPECT_TRUE(seen);
}

TEST(FailureTest, MessageLossIsMaskedByRetries) {
  SimWorld world({.nodes = 3, .rpc_timeout = 50'000, .max_retries = 8});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), 4096}, fill(4096, 0xAB)).ok());

  // 20% loss on every link: operations still succeed, just slower.
  net::LinkProfile lossy = net::LinkProfile::lan();
  lossy.drop_probability = 0.2;
  world.net().set_default_link(lossy);

  auto r = world.get(2, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0xAB);
}

}  // namespace
}  // namespace khz::core
