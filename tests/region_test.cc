// Unit tests for region descriptors/attributes, the region-directory cache
// (Section 3.2) and cluster-manager state (Section 3.1).
#include <gtest/gtest.h>

#include "location/cluster.h"
#include "location/region.h"
#include "location/region_directory.h"

namespace khz::location {
namespace {

RegionDescriptor desc(std::uint64_t base, std::uint64_t size,
                      std::vector<NodeId> homes = {0}) {
  RegionDescriptor d;
  d.range = {{0, base}, size};
  d.home_nodes = std::move(homes);
  return d;
}

// ---------------------------------------------------------------------------
// Attributes / descriptors
// ---------------------------------------------------------------------------

TEST(RegionAttrs, EncodeDecodeRoundTrip) {
  RegionAttrs a;
  a.page_size = 65536;
  a.level = ConsistencyLevel::kEventual;
  a.protocol = consistency::ProtocolId::kEventual;
  a.acl = {.owner = 42, .world_read = true, .world_write = false};
  a.min_replicas = 3;

  Encoder e;
  a.encode(e);
  Decoder d(e.data());
  EXPECT_EQ(RegionAttrs::decode(d), a);
  EXPECT_TRUE(d.at_end());
}

TEST(RegionDescriptor, EncodeDecodeRoundTrip) {
  RegionDescriptor r = desc(123456, 789, {1, 2, 3});
  r.attrs.min_replicas = 2;
  r.allocated = true;

  Encoder e;
  r.encode(e);
  Decoder d(e.data());
  const RegionDescriptor back = RegionDescriptor::decode(d);
  EXPECT_EQ(back.range, r.range);
  EXPECT_EQ(back.attrs, r.attrs);
  EXPECT_EQ(back.home_nodes, r.home_nodes);
  EXPECT_EQ(back.allocated, r.allocated);
}

TEST(RegionDescriptor, PrimaryHomeAndAlternates) {
  RegionDescriptor r = desc(0, 100, {5, 7, 9});
  EXPECT_EQ(r.primary_home(), 5u);
  EXPECT_EQ(r.alternates(), (std::vector<NodeId>{7, 9}));
  RegionDescriptor none = desc(0, 100, {});
  EXPECT_EQ(none.primary_home(), kNoNode);
  EXPECT_TRUE(none.alternates().empty());
}

TEST(RegionDescriptor, PageOfAlignsWithinRegion) {
  RegionDescriptor r = desc(8192, 65536);
  r.attrs.page_size = 16384;
  EXPECT_EQ(r.page_of({0, 8192}), GlobalAddress(0, 8192));
  EXPECT_EQ(r.page_of({0, 8192 + 16383}), GlobalAddress(0, 8192));
  EXPECT_EQ(r.page_of({0, 8192 + 16384}), GlobalAddress(0, 8192 + 16384));
}

TEST(AccessControl, OwnerAlwaysAllowed) {
  const AccessControl acl{.owner = 7, .world_read = false,
                          .world_write = false};
  EXPECT_TRUE(acl.allows(7, false));
  EXPECT_TRUE(acl.allows(7, true));
  EXPECT_FALSE(acl.allows(8, false));
  EXPECT_FALSE(acl.allows(8, true));
}

TEST(AccessControl, WorldBitsGateOthers) {
  const AccessControl acl{.owner = 0, .world_read = true,
                          .world_write = false};
  EXPECT_TRUE(acl.allows(5, false));
  EXPECT_FALSE(acl.allows(5, true));
}

TEST(MapRegionDescriptor, WellKnownShape) {
  const RegionDescriptor d = map_region_descriptor(3);
  EXPECT_EQ(d.range.base, kMapRegionBase);
  EXPECT_EQ(d.range.size, kMapRegionSize);
  EXPECT_EQ(d.primary_home(), 3u);
  EXPECT_EQ(d.attrs.protocol, consistency::ProtocolId::kRelease);
  EXPECT_TRUE(d.allocated);
}

// ---------------------------------------------------------------------------
// RegionDirectory
// ---------------------------------------------------------------------------

TEST(RegionDirectory, LookupByInteriorAddress) {
  RegionDirectory dir;
  dir.insert(desc(1000, 500));
  EXPECT_TRUE(dir.lookup({0, 1000}).has_value());
  EXPECT_TRUE(dir.lookup({0, 1499}).has_value());
  EXPECT_FALSE(dir.lookup({0, 1500}).has_value());
  EXPECT_FALSE(dir.lookup({0, 999}).has_value());
}

TEST(RegionDirectory, InsertRefreshesExisting) {
  RegionDirectory dir;
  dir.insert(desc(0, 100, {1}));
  dir.insert(desc(0, 100, {2}));
  EXPECT_EQ(dir.size(), 1u);
  EXPECT_EQ(dir.lookup({0, 0})->primary_home(), 2u);
}

TEST(RegionDirectory, InvalidateDropsCoveringEntry) {
  RegionDirectory dir;
  dir.insert(desc(0, 100));
  dir.invalidate({0, 50});
  EXPECT_FALSE(dir.lookup({0, 0}).has_value());
  // Invalidating a non-covered address is a no-op.
  dir.insert(desc(0, 100));
  dir.invalidate({0, 500});
  EXPECT_TRUE(dir.lookup({0, 0}).has_value());
}

TEST(RegionDirectory, LruEvictionAtCapacity) {
  RegionDirectory dir(3);
  dir.insert(desc(0, 10));
  dir.insert(desc(100, 10));
  dir.insert(desc(200, 10));
  (void)dir.lookup({0, 0});  // refresh the oldest
  dir.insert(desc(300, 10));  // evicts {100,10}
  EXPECT_TRUE(dir.lookup({0, 0}).has_value());
  EXPECT_FALSE(dir.lookup({0, 100}).has_value());
  EXPECT_TRUE(dir.lookup({0, 200}).has_value());
  EXPECT_TRUE(dir.lookup({0, 300}).has_value());
}

TEST(RegionDirectory, StatsCountHitsAndMisses) {
  obs::MetricsRegistry metrics;
  RegionDirectory dir;
  dir.bind_metrics(metrics);
  dir.insert(desc(0, 10));
  (void)dir.lookup({0, 5});
  (void)dir.lookup({0, 50});
  EXPECT_EQ(metrics.counter("region_dir.hits").value(), 1u);
  EXPECT_EQ(metrics.counter("region_dir.misses").value(), 1u);
}

TEST(RegionDirectory, AdjacentRegionsResolveDistinctly) {
  RegionDirectory dir;
  dir.insert(desc(0, 100, {1}));
  dir.insert(desc(100, 100, {2}));
  EXPECT_EQ(dir.lookup({0, 99})->primary_home(), 1u);
  EXPECT_EQ(dir.lookup({0, 100})->primary_home(), 2u);
}

// ---------------------------------------------------------------------------
// ClusterState
// ---------------------------------------------------------------------------

TEST(ClusterState, PublishAndHint) {
  ClusterState cs;
  cs.publish({0, 1000}, 500, 3);
  cs.publish({0, 1000}, 500, 4);
  const auto nodes = cs.hint({0, 1200});
  EXPECT_EQ(nodes, (std::vector<NodeId>{3, 4}));
  EXPECT_TRUE(cs.hint({0, 1500}).empty());
  EXPECT_TRUE(cs.hint({0, 999}).empty());
}

TEST(ClusterState, RetractRemovesNodeThenEntry) {
  ClusterState cs;
  cs.publish({0, 0}, 100, 1);
  cs.publish({0, 0}, 100, 2);
  cs.retract({0, 0}, 1);
  EXPECT_EQ(cs.hint({0, 0}), (std::vector<NodeId>{2}));
  cs.retract({0, 0}, 2);
  EXPECT_TRUE(cs.hint({0, 0}).empty());
  EXPECT_EQ(cs.hint_count(), 0u);
}

TEST(ClusterState, FreeSpaceTracking) {
  ClusterState cs;
  cs.report_free_space(1, 1000);
  cs.report_free_space(2, 5000);
  cs.report_free_space(3, 200);
  EXPECT_EQ(cs.free_space_of(2), 5000u);
  EXPECT_EQ(cs.free_space_of(9), 0u);
  EXPECT_EQ(cs.best_pool_node(100), 2u);
  EXPECT_EQ(cs.best_pool_node(10000), std::nullopt);
}

TEST(ClusterState, FreeSpaceOffersExpire) {
  ClusterState cs;
  cs.set_free_space_ttl(1'000'000);
  cs.report_free_space(1, 5000, /*now=*/100);
  cs.report_free_space(2, 1000, /*now=*/900'000);
  // Within the TTL the biggest offer wins; once node 1's report ages out,
  // best_pool_node stops recommending it even though the record remains.
  EXPECT_EQ(cs.best_pool_node(100, /*now=*/500'000), 1u);
  EXPECT_EQ(cs.best_pool_node(100, /*now=*/1'500'000), 2u);
  EXPECT_EQ(cs.best_pool_node(100, /*now=*/3'000'000), std::nullopt);
  EXPECT_EQ(cs.free_space_of(1), 5000u);  // raw record is still readable
}

TEST(ClusterState, RetractNodeTombstonesEverywhere) {
  ClusterState cs;
  cs.publish({0, 0}, 100, 1, /*now=*/10);
  cs.publish({0, 0}, 100, 2, /*now=*/10);
  cs.publish({0, 200}, 100, 1, /*now=*/10);
  EXPECT_EQ(cs.retract_node(1, /*now=*/20), 2u);
  EXPECT_EQ(cs.hint({0, 0}), (std::vector<NodeId>{2}));
  EXPECT_TRUE(cs.hint({0, 200}).empty());
  // Tombstones survive as records so anti-entropy can propagate them.
  std::size_t tombstones = 0;
  for (const auto& e : cs.entries()) tombstones += e.retracted ? 1 : 0;
  EXPECT_EQ(tombstones, 2u);
}

TEST(ClusterState, MergeIsNewestWins) {
  ClusterState a;
  ClusterState b;
  a.publish({0, 0}, 100, 1, /*now=*/10);
  b.publish({0, 0}, 100, 1, /*now=*/10);
  b.retract({0, 0}, 1, /*now=*/50);  // newer tombstone on b
  a.publish({0, 400}, 100, 3, /*now=*/30);

  // b's newer tombstone wins on a; a's record for the other region is new
  // to b. After a full exchange both digests agree.
  EXPECT_EQ(a.merge(b.entries()), 1u);
  EXPECT_TRUE(a.hint({0, 0}).empty());
  EXPECT_EQ(b.merge(a.entries()), 1u);
  EXPECT_EQ(a.digest(), b.digest());

  // Replaying either side is idempotent.
  EXPECT_EQ(a.merge(b.entries()), 0u);
}

TEST(ClusterState, MergeNeverResurrectsDetectedFailure) {
  ClusterState local;
  ClusterState peer;
  local.publish({0, 0}, 100, 7, /*now=*/10);
  local.retract_node(7, /*now=*/20);
  peer.publish({0, 0}, 100, 7, /*now=*/90);  // stale optimism, newer stamp
  const auto is_down = [](NodeId n) { return n == 7; };
  local.merge(peer.entries(), is_down);
  EXPECT_TRUE(local.hint({0, 0}).empty());
}

TEST(ClusterState, SignedHintSetRoundTripsAndRejectsTampering) {
  ClusterState a;
  a.publish({0, 0}, 100, 1, /*now=*/10);
  a.publish({0, 400}, 200, 2, /*now=*/20);
  a.retract({0, 400}, 2, /*now=*/30);
  Encoder e;
  ClusterState::encode_signed(e, a.entries(), /*signer=*/7);
  const Bytes wire = std::move(e).take();

  // What a peer manager does with a kHintSyncReq payload: merge the set
  // only when it verifies against the node it came from.
  const auto receive = [](const Bytes& payload, NodeId from) {
    ClusterState peer;
    Decoder d(payload);
    const auto in = ClusterState::decode_signed(d, from);
    if (in) peer.merge(*in);
    return std::pair{in.has_value(), peer.entries()};
  };

  const auto [accepted, merged] = receive(wire, 7);
  EXPECT_TRUE(accepted);
  EXPECT_EQ(merged, a.entries());

  // Signed by a node other than the sender.
  EXPECT_EQ(receive(wire, 8),
            std::pair(false, std::vector<ClusterState::Entry>{}));

  // One record altered in flight: the first record's size field (after
  // the u64 signature, the u32 count and the record's 16-byte base).
  Bytes flipped = wire;
  flipped[8 + 4 + 16] ^= 0x01;
  EXPECT_EQ(receive(flipped, 7),
            std::pair(false, std::vector<ClusterState::Entry>{}));

  // Cut short: the last record's retracted flag is missing.
  const Bytes cut(wire.begin(), wire.end() - 1);
  EXPECT_EQ(receive(cut, 7),
            std::pair(false, std::vector<ClusterState::Entry>{}));
}

TEST(ClusterState, DigestIsOrderIndependentAndStampSensitive) {
  ClusterState a;
  ClusterState b;
  a.publish({0, 0}, 100, 1, /*now=*/10);
  a.publish({0, 200}, 100, 2, /*now=*/20);
  b.publish({0, 200}, 100, 2, /*now=*/20);
  b.publish({0, 0}, 100, 1, /*now=*/10);
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(ClusterState::digest_of(a.entries()), a.digest());
  b.publish({0, 0}, 100, 1, /*now=*/30);  // same record, newer stamp
  EXPECT_NE(a.digest(), b.digest());
}

}  // namespace
}  // namespace khz::location
