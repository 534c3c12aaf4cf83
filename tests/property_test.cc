// Property tests: randomized workloads checked against reference models.
//
//  * CREW linearizability: random lock/read/write sequences from random
//    nodes over several regions must match a trivial sequential model —
//    each read sees exactly the bytes of the latest completed write.
//  * Crash-churn liveness: with replication, random crashes and recoveries
//    never make replicated data unreadable or wrong.
//  * Serialization fuzz: arbitrary byte strings never crash the decoders.
#include <gtest/gtest.h>

#include "core/client.h"
#include "net/message.h"

namespace khz::core {
namespace {

using consistency::LockMode;

struct SweepParam {
  std::uint64_t seed;
  std::size_t nodes;
  std::size_t regions;
};

class CrewLinearizability : public ::testing::TestWithParam<SweepParam> {};

TEST_P(CrewLinearizability, RandomOpsMatchSequentialModel) {
  const auto [seed, node_count, region_count] = GetParam();
  SimWorld world({.nodes = node_count, .seed = seed});
  Rng rng(seed * 77 + 1);

  struct Region {
    AddressRange range;
    Bytes model;  // reference contents
  };
  std::vector<Region> regions;
  for (std::size_t i = 0; i < region_count; ++i) {
    const auto home = static_cast<NodeId>(rng.below(node_count));
    const std::uint64_t pages = 1 + rng.below(3);
    auto base = world.create_region(home, pages * 4096);
    ASSERT_TRUE(base.ok());
    regions.push_back(
        {{base.value(), pages * 4096}, Bytes(pages * 4096, 0)});
  }

  for (int step = 0; step < 120; ++step) {
    auto& region = regions[rng.below(regions.size())];
    const auto node = static_cast<NodeId>(rng.below(node_count));
    // Random sub-range.
    const std::uint64_t off = rng.below(region.range.size);
    const std::uint64_t len =
        1 + rng.below(std::min<std::uint64_t>(region.range.size - off, 6000));
    const AddressRange sub{region.range.base.plus(off), len};

    if (rng.chance(0.5)) {
      // Write: update Khazana and the model identically.
      Bytes data(len);
      for (auto& b : data) b = static_cast<std::uint8_t>(rng.next());
      ASSERT_TRUE(world.put(node, sub, data).ok())
          << "step " << step << " node " << node;
      std::copy(data.begin(), data.end(),
                region.model.begin() + static_cast<long>(off));
    } else {
      // Read: must equal the model exactly (CREW = strict consistency).
      auto r = world.get(node, sub);
      ASSERT_TRUE(r.ok()) << "step " << step << " node " << node;
      const Bytes expect(
          region.model.begin() + static_cast<long>(off),
          region.model.begin() + static_cast<long>(off + len));
      ASSERT_EQ(r.value(), expect) << "step " << step << " node " << node;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrewLinearizability,
    ::testing::Values(SweepParam{1, 2, 1}, SweepParam{2, 3, 2},
                      SweepParam{3, 4, 3}, SweepParam{4, 5, 2},
                      SweepParam{5, 3, 4}, SweepParam{6, 6, 3},
                      SweepParam{7, 2, 5}, SweepParam{8, 8, 2}));

class CrashChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrashChurn, ReplicatedRegionsSurviveRandomCrashes) {
  const std::uint64_t seed = GetParam();
  SimWorld world({.nodes = 5, .rpc_timeout = 50'000, .seed = seed});
  Rng rng(seed);

  RegionAttrs attrs;
  attrs.min_replicas = 3;
  auto base = world.create_region(1, 4096, attrs);
  ASSERT_TRUE(base.ok());
  const AddressRange region{base.value(), 4096};
  std::uint8_t current = 1;
  ASSERT_TRUE(world.put(1, region, Bytes(4096, current)).ok());
  world.pump_for(3'000'000);

  std::set<NodeId> down;
  for (int step = 0; step < 15; ++step) {
    // Random churn, keeping a majority of non-genesis nodes alive and the
    // genesis (map/manager) node up.
    if (!down.empty() && rng.chance(0.5)) {
      const NodeId revive = *down.begin();
      world.net().set_node_up(revive, true);
      down.erase(revive);
      world.pump_for(500'000);
    } else if (down.size() < 2) {
      const auto victim = static_cast<NodeId>(1 + rng.below(4));
      if (!down.contains(victim)) {
        world.net().set_node_up(victim, false);
        down.insert(victim);
      }
    }

    // A surviving node reads; the value must be the last written one.
    // (This is the paper's availability guarantee: "If a node storing a
    // copy of a region of global memory is accessible from a client, then
    // the data itself must be available to the client.")
    NodeId reader = 0;
    auto r = world.get(reader, region);
    ASSERT_TRUE(r.ok()) << "step " << step << " down=" << down.size();
    ASSERT_EQ(r.value()[0], current) << "step " << step;

    // Occasionally write a new value. Writes need the home's directory
    // authority (home fail-over is the paper's future work), so only
    // write while the home is up.
    if (!down.contains(1) && rng.chance(0.4)) {
      ++current;
      ASSERT_TRUE(world.put(0, region, Bytes(4096, current)).ok())
          << "step " << step;
      world.pump_for(2'000'000);  // replicas re-establish
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrashChurn,
                         ::testing::Values(11, 22, 33, 44, 55));

class DecoderFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecoderFuzz, ArbitraryBytesNeverCrashDecoders) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 500; ++trial) {
    Bytes junk(rng.below(300));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());

    net::Message m;
    (void)net::Message::decode(junk, m);

    Decoder d1(junk);
    (void)RegionDescriptor::decode(d1);
    Decoder d2(junk);
    (void)RegionAttrs::decode(d2);
    Decoder d3(junk);
    (void)d3.str();
    (void)d3.bytes();
    (void)d3.addr();
    (void)d3.range();
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecoderFuzz,
                         ::testing::Values(101, 202, 303));

TEST(MapWalkFuzz, JunkMapPagesNeverCrashTheWalker) {
  Rng rng(9);
  for (int trial = 0; trial < 300; ++trial) {
    Bytes junk(4096);
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)AddressMap::walk_step(junk, {0, rng.next()});
  }
  SUCCEED();
}

}  // namespace
}  // namespace khz::core
