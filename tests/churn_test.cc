// Property-style churn test for location lookup (docs/location.md).
//
// 64 simulated nodes run a randomized storm of crashes, restarts, and a
// transient partition (all drawn from a seeded Rng, so the run is
// deterministic), with hint anti-entropy on. Afterwards the suite asserts
// the location plane's core properties:
//
//   1. Every resolve eventually succeeds — the address map at genesis is
//      authoritative, so churn may slow a lookup down a level but never
//      lose a region.
//   2. Terminal attribution: on every node, the per-hit-class counters
//      plus failures sum exactly to the resolves issued — each lookup is
//      accounted to exactly one level.
//   3. No location-plane RPC is steered at a node its sender's failure
//      detector has declared down (checked with a delivery tap over the
//      whole run), and after the dust settles no live hint record on any
//      manager names a detector-declared-down node.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/client.h"

namespace khz::core {
namespace {

constexpr std::size_t kNodes = 64;
constexpr std::size_t kManagers = 4;
constexpr std::size_t kRegionCount = 16;

Result<RegionDescriptor> resolve_on(SimWorld& world, NodeId reader,
                                    const GlobalAddress& addr) {
  std::optional<Result<RegionDescriptor>> out;
  world.node(reader).resolver().resolve(
      addr, [&](Result<RegionDescriptor> r) { out = std::move(r); });
  if (!world.pump_until([&] { return out.has_value(); })) {
    return ErrorCode::kTimeout;
  }
  return std::move(*out);
}

std::uint64_t counter_of(SimWorld& world, NodeId n, const char* name) {
  return world.node(n).metrics().counter(name).value();
}

TEST(ChurnTest, ResolutionSurvivesRandomChurn) {
  SimWorldOptions opts;
  opts.nodes = kNodes;
  opts.managers = kManagers;
  opts.ping_interval = 200'000;
  opts.hint_sync_interval = 200'000;
  opts.free_space_ttl = 5'000'000;
  opts.seed = 11;
  SimWorld world(opts);

  // Steering property: a location-plane request must never be delivered to
  // a node its (live) sender currently considers down. The tap sees every
  // delivery; ping traffic is exempt — probing a down node is how the
  // detector notices recovery.
  std::vector<std::string> steering_violations;
  world.net().set_tap([&](Micros, const net::Message& m) {
    switch (m.type) {
      case net::MsgType::kHintQueryReq:
      case net::MsgType::kDescLookupReq:
      case net::MsgType::kHintSyncReq:
        break;
      default:
        return;
    }
    if (!world.node_alive(m.src) || !world.node_alive(m.dst)) return;
    if (world.node(m.src).is_down(m.dst)) {
      steering_violations.push_back(std::string(net::to_string(m.type)) +
                                    " " + std::to_string(m.src) + "->" +
                                    std::to_string(m.dst));
    }
  });

  // Two replicas per region so a home's permanent death promotes an heir
  // (docs/recovery.md) instead of orphaning the descriptor.
  RegionAttrs attrs;
  attrs.min_replicas = 2;
  std::vector<GlobalAddress> regions;
  for (std::size_t i = 0; i < kRegionCount; ++i) {
    auto base =
        world.create_region(static_cast<NodeId>(kManagers + i), 4096, attrs);
    ASSERT_TRUE(base.ok());
    regions.push_back(base.value());
  }
  world.pump_for(400'000);

  // Random churn storm: a dozen crash/restart events over non-genesis
  // nodes (managers included — their volatile hint caches die with them)
  // plus one transient half/half partition.
  Rng rng(opts.seed);
  std::map<NodeId, Micros> busy_until;
  Micros t = 600'000;
  for (int i = 0; i < 12; ++i) {
    const auto victim = static_cast<NodeId>(1 + rng.below(kNodes - 1));
    const Micros down_for = 700'000 + rng.below(1'200'000);
    if (t < busy_until[victim]) continue;  // still mid-bounce: skip event
    busy_until[victim] = t + down_for + 200'000;
    world.schedule_crash(t, victim);
    world.schedule_restart(t + down_for, victim);
    t += 200'000 + rng.below(400'000);
  }
  std::set<NodeId> lower, upper;
  for (NodeId n = 0; n < kNodes; ++n) {
    (n < kNodes / 2 ? lower : upper).insert(n);
  }
  world.schedule_partition(t, lower, upper);
  world.schedule_heal(t + 300'000);

  // Interleave lookups with the storm so resolves race real failures.
  for (std::size_t i = 0; i < 24; ++i) {
    const auto reader =
        static_cast<NodeId>(kManagers + kRegionCount + rng.below(32));
    if (!world.node_alive(reader)) continue;
    (void)resolve_on(world, reader, regions[rng.below(regions.size())]);
  }

  // Two homes die for good; every surviving detector must convict them and
  // the retractions must propagate manager-to-manager via anti-entropy.
  const auto dead_a = static_cast<NodeId>(kManagers);
  const auto dead_b = static_cast<NodeId>(kManagers + 1);
  world.crash_node(dead_a);
  world.crash_node(dead_b);
  world.pump_for(3'000'000);

  // Property 1: every region still resolves from every live node.
  for (NodeId reader = 0; reader < kNodes; ++reader) {
    if (!world.node_alive(reader)) continue;
    for (const auto& base : regions) {
      auto r = resolve_on(world, reader, base);
      ASSERT_TRUE(r.ok()) << "node " << reader << " failed to resolve "
                          << to_string(r.error());
      EXPECT_EQ(r.value().range.base, base);
    }
  }

  // Property 2: hit-class counters sum to total lookups on every node.
  for (NodeId n = 0; n < kNodes; ++n) {
    if (!world.node_alive(n)) continue;
    const std::uint64_t resolves = counter_of(world, n, "location.resolves");
    const std::uint64_t classed =
        counter_of(world, n, "location.hits.home") +
        counter_of(world, n, "location.hits.region_dir") +
        counter_of(world, n, "location.hits.manager") +
        counter_of(world, n, "location.hits.map_walk") +
        counter_of(world, n, "location.hits.cluster_walk") +
        counter_of(world, n, "location.failures");
    EXPECT_EQ(resolves, classed) << "node " << n;
  }

  // Property 3a: the tap saw no request steered at a declared-down node.
  EXPECT_TRUE(steering_violations.empty())
      << steering_violations.size() << " violations, first: "
      << steering_violations.front();

  // Property 3b: no manager's live hint set names the dead homes, and the
  // detector verdicts were turned into propagated retractions.
  std::uint64_t retractions = 0;
  for (NodeId m = 0; m < kManagers; ++m) {
    if (!world.node_alive(m)) continue;
    for (const auto& e : world.node(m).cluster_state().entries()) {
      if (e.retracted) continue;
      EXPECT_NE(e.node, dead_a) << "manager " << m;
      EXPECT_NE(e.node, dead_b) << "manager " << m;
      EXPECT_FALSE(world.node(m).is_down(e.node)) << "manager " << m;
    }
    retractions += counter_of(world, m, "location.retractions");
  }
  EXPECT_GT(retractions, 0u);

  // Anti-entropy actually ran and repaired divergence during the storm.
  std::uint64_t merged = 0;
  for (NodeId m = 0; m < kManagers; ++m) {
    if (!world.node_alive(m)) continue;
    merged += counter_of(world, m, "location.hint_sync.merged");
  }
  EXPECT_GT(merged, 0u);
}

}  // namespace
}  // namespace khz::core
