// Protocol behaviour tests (paper, Section 3.3): CREW delay-not-refuse
// semantics, invalidation, ownership migration and message economics;
// release-consistency staleness and write-back propagation; eventual
// convergence. All exercised through the public node API on SimWorld.
#include <gtest/gtest.h>

#include "core/client.h"

namespace khz::core {
namespace {

using consistency::LockContext;
using consistency::LockMode;
using consistency::ProtocolId;

Bytes fill(std::size_t n, std::uint8_t v) { return Bytes(n, v); }

std::uint64_t cm_messages(SimWorld& world) {
  auto it = world.net().stats().per_type.find(net::MsgType::kCm);
  return it == world.net().stats().per_type.end() ? 0 : it->second;
}

// ---------------------------------------------------------------------------
// CREW
// ---------------------------------------------------------------------------

class CrewTest : public ::testing::Test {
 protected:
  CrewTest() : world_({.nodes = 4}) {
    auto base = world_.create_region(0, 4096);
    EXPECT_TRUE(base.ok());
    region_ = {base.value(), 4096};
  }

  SimWorld world_;
  AddressRange region_;
};

TEST_F(CrewTest, ConcurrentReadLocksGrantedOnAllNodes) {
  std::vector<LockContext> held;
  for (NodeId n = 0; n < 4; ++n) {
    auto ctx = world_.lock(n, region_, LockMode::kRead);
    ASSERT_TRUE(ctx.ok()) << n;
    held.push_back(ctx.value());
  }
  for (NodeId n = 0; n < 4; ++n) world_.unlock(n, held[n]);
}

TEST_F(CrewTest, WriteLockWaitsForRemoteReaderThenProceeds) {
  auto rd = world_.lock(1, region_, LockMode::kRead);
  ASSERT_TRUE(rd.ok());

  // Node 2 requests a write lock; the conflicting read delays (not
  // refuses) the grant: "If necessary, it delays granting the locks until
  // the conflict is resolved."
  std::optional<Result<LockContext>> wr;
  world_.node(2).lock(region_, LockMode::kWrite,
                      [&](Result<LockContext> r) { wr = std::move(r); });
  world_.pump_for(50'000);  // 50 ms: plenty for the RPCs, grant still held
  EXPECT_FALSE(wr.has_value());

  world_.unlock(1, rd.value());
  world_.pump_until([&] { return wr.has_value(); });
  ASSERT_TRUE(wr.has_value());
  ASSERT_TRUE(wr->ok());
  world_.unlock(2, wr->value());
}

TEST_F(CrewTest, WriteLockWaitsForHomeReaderThenProceeds) {
  // The same rule when the reader is the region's home (node 0): the
  // home's own holds also delay remote grants.
  ASSERT_TRUE(world_.put(0, region_, fill(4096, 0x11)).ok());
  auto rd = world_.lock(0, region_, LockMode::kRead);
  ASSERT_TRUE(rd.ok());

  std::optional<Result<LockContext>> wr;
  world_.node(2).lock(region_, LockMode::kWrite,
                      [&](Result<LockContext> r) { wr = std::move(r); });
  world_.pump_for(50'000);
  EXPECT_FALSE(wr.has_value());
  EXPECT_EQ(world_.read(0, rd.value(), 0, 1).value()[0], 0x11);

  world_.unlock(0, rd.value());
  world_.pump_until([&] { return wr.has_value(); });
  ASSERT_TRUE(wr.has_value());
  ASSERT_TRUE(wr->ok());
  ASSERT_TRUE(world_.write(2, wr->value(), 0, fill(4096, 0x22)).ok());
  world_.unlock(2, wr->value());
  EXPECT_EQ(world_.get(0, region_).value()[0], 0x22);
}

TEST_F(CrewTest, ReadLockWaitsForHomeWriterThenSeesItsWrite) {
  // A remote read must not be served from under the home's own write
  // lock: the reader would keep the pre-write copy after the write.
  auto wr = world_.lock(0, region_, LockMode::kWrite);
  ASSERT_TRUE(wr.ok());
  std::optional<Result<LockContext>> rd;
  world_.node(1).lock(region_, LockMode::kRead,
                      [&](Result<LockContext> r) { rd = std::move(r); });
  world_.pump_for(50'000);
  EXPECT_FALSE(rd.has_value());

  ASSERT_TRUE(world_.write(0, wr.value(), 0, fill(4096, 0x33)).ok());
  world_.unlock(0, wr.value());
  world_.pump_until([&] { return rd.has_value(); });
  ASSERT_TRUE(rd.has_value());
  ASSERT_TRUE(rd->ok());
  EXPECT_EQ(world_.read(1, rd->value(), 0, 1).value()[0], 0x33);
  world_.unlock(1, rd->value());
  EXPECT_EQ(world_.get(1, region_).value()[0], 0x33);
}

TEST_F(CrewTest, InvalidateOvertakingInFlightDataLeavesNoStaleCopy) {
  // Node 1 owns the page. Node 2's read is served by node 1 directly
  // (downgrade) over a slow link, so the home's invalidate for node 3's
  // write reaches node 2 before that data does. The data must not
  // become a copy the home no longer tracks.
  ASSERT_TRUE(world_.put(1, region_, fill(4096, 0x44)).ok());
  net::LinkProfile slow = net::LinkProfile::lan();
  slow.latency = 20'000;
  world_.net().set_link(1, 2, slow);

  std::optional<Result<LockContext>> rd;
  world_.node(2).lock(region_, LockMode::kRead,
                      [&](Result<LockContext> r) { rd = std::move(r); });
  world_.pump_for(2'000);  // downgrade done at the home; data in flight
  ASSERT_FALSE(rd.has_value());
  ASSERT_TRUE(world_.put(3, region_, fill(4096, 0x55)).ok());

  world_.pump_until([&] { return rd.has_value(); });
  ASSERT_TRUE(rd.has_value());
  ASSERT_TRUE(rd->ok());
  world_.unlock(2, rd->value());
  world_.net().set_link(1, 2, net::LinkProfile::lan());
  auto after = world_.get(2, region_);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value()[0], 0x55) << "node 2 kept a stale copy";
}

TEST_F(CrewTest, LocalWriteWriteConflictQueues) {
  auto w1 = world_.lock(1, region_, LockMode::kWrite);
  ASSERT_TRUE(w1.ok());
  std::optional<Result<LockContext>> w2;
  world_.node(1).lock(region_, LockMode::kWrite,
                      [&](Result<LockContext> r) { w2 = std::move(r); });
  world_.pump_for(50'000);
  EXPECT_FALSE(w2.has_value());
  world_.unlock(1, w1.value());
  world_.pump_until([&] { return w2.has_value(); });
  ASSERT_TRUE(w2.has_value() && w2->ok());
  world_.unlock(1, w2->value());
}

TEST_F(CrewTest, ReadersSeeLatestWriteAfterInvalidation) {
  // Warm read caches on nodes 1..3.
  for (NodeId n = 1; n < 4; ++n) {
    ASSERT_TRUE(world_.get(n, region_).ok());
  }
  // Node 3 writes; every other node's next read returns the new data.
  ASSERT_TRUE(world_.put(3, region_, fill(4096, 0xEE)).ok());
  for (NodeId n = 0; n < 3; ++n) {
    auto r = world_.get(n, region_);
    ASSERT_TRUE(r.ok()) << n;
    EXPECT_EQ(r.value()[0], 0xEE) << n;
  }
}

TEST_F(CrewTest, WarmReadLockIsMessageFree) {
  ASSERT_TRUE(world_.get(2, region_).ok());  // cold: fetches the page
  const auto before = world_.net().stats().messages_sent;
  ASSERT_TRUE(world_.get(2, region_).ok());  // warm: local grant
  EXPECT_EQ(world_.net().stats().messages_sent, before);
}

TEST_F(CrewTest, OwnerWritesAreMessageFreeAfterMigration) {
  ASSERT_TRUE(world_.put(2, region_, fill(4096, 1)).ok());  // migrate owner
  const auto before = world_.net().stats().messages_sent;
  ASSERT_TRUE(world_.put(2, region_, fill(4096, 2)).ok());  // local
  EXPECT_EQ(world_.net().stats().messages_sent, before);
}

TEST_F(CrewTest, WriteSharedDegradesToExclusive) {
  auto w = world_.lock(1, region_, LockMode::kWriteShared);
  ASSERT_TRUE(w.ok());
  std::optional<Result<LockContext>> other;
  world_.node(2).lock(region_, LockMode::kWriteShared,
                      [&](Result<LockContext> r) { other = std::move(r); });
  world_.pump_for(50'000);
  EXPECT_FALSE(other.has_value());  // CREW: no concurrent writers
  world_.unlock(1, w.value());
  world_.pump_until([&] { return other.has_value(); });
  ASSERT_TRUE(other.has_value() && other->ok());
  world_.unlock(2, other->value());
}

TEST_F(CrewTest, ReaderQueuedBehindWriterGetsNewData) {
  auto w = world_.lock(1, region_, LockMode::kWrite);
  ASSERT_TRUE(w.ok());
  ASSERT_TRUE(world_.write(1, w.value(), 0, fill(100, 0x77)).ok());

  std::optional<Result<Bytes>> read_result;
  world_.node(2).lock(region_, LockMode::kRead,
                      [&](Result<LockContext> r) {
                        ASSERT_TRUE(r.ok());
                        read_result = world_.node(2).read(r.value(), 0, 100);
                        world_.node(2).unlock(r.value());
                      });
  world_.pump_for(50'000);
  EXPECT_FALSE(read_result.has_value());  // still blocked on the writer

  world_.unlock(1, w.value());
  world_.pump_until([&] { return read_result.has_value(); });
  ASSERT_TRUE(read_result.has_value() && read_result->ok());
  EXPECT_EQ(read_result->value()[0], 0x77);
}

TEST_F(CrewTest, InterleavedWritersNeverLoseUpdates) {
  // Counter increments from alternating nodes: CREW must linearize them.
  auto init = fill(8, 0);
  ASSERT_TRUE(world_.put(0, {region_.base, 8}, init).ok());
  for (int i = 0; i < 20; ++i) {
    const NodeId n = static_cast<NodeId>(i % 4);
    auto ctx = world_.lock(n, {region_.base, 8}, LockMode::kWrite);
    ASSERT_TRUE(ctx.ok());
    auto cur = world_.read(n, ctx.value(), 0, 8);
    ASSERT_TRUE(cur.ok());
    std::uint64_t v = 0;
    std::memcpy(&v, cur.value().data(), 8);
    ++v;
    Bytes out(8);
    std::memcpy(out.data(), &v, 8);
    ASSERT_TRUE(world_.write(n, ctx.value(), 0, out).ok());
    world_.unlock(n, ctx.value());
  }
  auto final = world_.get(3, {region_.base, 8});
  ASSERT_TRUE(final.ok());
  std::uint64_t v = 0;
  std::memcpy(&v, final.value().data(), 8);
  EXPECT_EQ(v, 20u);
}

// ---------------------------------------------------------------------------
// Release consistency
// ---------------------------------------------------------------------------

class ReleaseTest : public ::testing::Test {
 protected:
  ReleaseTest() : world_({.nodes = 3}) {
    RegionAttrs attrs;
    attrs.level = ConsistencyLevel::kRelaxed;
    attrs.protocol = ProtocolId::kRelease;
    auto base = world_.create_region(0, 4096, attrs);
    EXPECT_TRUE(base.ok());
    region_ = {base.value(), 4096};
  }

  SimWorld world_;
  AddressRange region_;
};

TEST_F(ReleaseTest, CachedReaderMayBeStaleThenConverges) {
  ASSERT_TRUE(world_.put(0, region_, fill(4096, 1)).ok());
  ASSERT_TRUE(world_.get(2, region_).ok());  // node 2 caches v1

  // Writer on node 1: a cached reader may still see the old version
  // immediately (relaxed), but converges once the home's update
  // propagates.
  ASSERT_TRUE(world_.put(1, region_, fill(4096, 2)).ok());
  world_.pump_for(2'000'000);
  auto late = world_.get(2, region_);
  ASSERT_TRUE(late.ok());
  EXPECT_EQ(late.value()[0], 2);
}

TEST_F(ReleaseTest, CachedReadIsMessageFreeEvenAcrossWrites) {
  ASSERT_TRUE(world_.get(2, region_).ok());
  const auto before = world_.net().stats().messages_sent;
  ASSERT_TRUE(world_.get(2, region_).ok());
  EXPECT_EQ(world_.net().stats().messages_sent, before);
}

TEST_F(ReleaseTest, ConcurrentWritersBothGranted) {
  // Unlike CREW, release consistency admits concurrent writers.
  auto w0 = world_.lock(0, region_, LockMode::kWriteShared);
  ASSERT_TRUE(w0.ok());
  auto w1 = world_.lock(1, region_, LockMode::kWriteShared);
  ASSERT_TRUE(w1.ok());  // no delay
  world_.unlock(0, w0.value());
  world_.unlock(1, w1.value());
}

TEST_F(ReleaseTest, WriteBackReachesHomeAndSharers) {
  ASSERT_TRUE(world_.get(2, region_).ok());  // node 2 in the sharer set
  ASSERT_TRUE(world_.put(1, region_, fill(4096, 9)).ok());
  world_.pump_for(2'000'000);
  // The home (node 0) has the new contents...
  auto home = world_.get(0, region_);
  ASSERT_TRUE(home.ok());
  EXPECT_EQ(home.value()[0], 9);
  // ...and so does the passive sharer.
  auto sharer = world_.get(2, region_);
  ASSERT_TRUE(sharer.ok());
  EXPECT_EQ(sharer.value()[0], 9);
}

// ---------------------------------------------------------------------------
// Eventual consistency
// ---------------------------------------------------------------------------

class EventualTest : public ::testing::Test {
 protected:
  EventualTest() : world_({.nodes = 4}) {
    RegionAttrs attrs;
    attrs.level = ConsistencyLevel::kEventual;
    attrs.protocol = ProtocolId::kEventual;
    auto base = world_.create_region(0, 4096, attrs);
    EXPECT_TRUE(base.ok());
    region_ = {base.value(), 4096};
  }

  SimWorld world_;
  AddressRange region_;
};

TEST_F(EventualTest, AllReplicasConvergeToSomeWrite) {
  for (NodeId n = 0; n < 4; ++n) ASSERT_TRUE(world_.get(n, region_).ok());
  // Two nodes write different values close together.
  ASSERT_TRUE(world_.put(1, region_, fill(4096, 0xAA)).ok());
  ASSERT_TRUE(world_.put(2, region_, fill(4096, 0xBB)).ok());
  // Anti-entropy settles everyone on the same (last-writer-wins) value.
  world_.pump_for(3'000'000);
  std::set<std::uint8_t> finals;
  for (NodeId n = 0; n < 4; ++n) {
    auto r = world_.get(n, region_);
    ASSERT_TRUE(r.ok());
    finals.insert(r.value()[0]);
  }
  EXPECT_EQ(finals.size(), 1u) << "replicas diverged";
  EXPECT_TRUE(*finals.begin() == 0xAA || *finals.begin() == 0xBB);
}

TEST_F(EventualTest, ReadsNeverBlockOnConcurrentWriters) {
  auto w = world_.lock(1, region_, LockMode::kWrite);
  ASSERT_TRUE(w.ok());
  // Reads on other replicas grant instantly despite the writer.
  auto r = world_.lock(2, region_, LockMode::kRead);
  ASSERT_TRUE(r.ok());
  world_.unlock(2, r.value());
  world_.unlock(1, w.value());
}

TEST_F(EventualTest, LaterWriterWinsEverywhere) {
  ASSERT_TRUE(world_.put(1, region_, fill(4096, 1)).ok());
  world_.pump_for(1'000'000);
  ASSERT_TRUE(world_.put(2, region_, fill(4096, 2)).ok());
  world_.pump_for(3'000'000);
  for (NodeId n = 0; n < 4; ++n) {
    auto r = world_.get(n, region_);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value()[0], 2) << n;
  }
}

// ---------------------------------------------------------------------------
// Protocol economics comparison (message counts; the basis of
// bench_consistency)
// ---------------------------------------------------------------------------

TEST(ProtocolComparison, WeakerProtocolsUseFewerMessagesForCachedReads) {
  auto run = [](ProtocolId protocol, ConsistencyLevel level) {
    SimWorld world({.nodes = 3});
    RegionAttrs attrs;
    attrs.level = level;
    attrs.protocol = protocol;
    auto base = world.create_region(0, 4096, attrs);
    EXPECT_TRUE(base.ok());
    const AddressRange region{base.value(), 4096};
    // Warm node 2's cache, then interleave writes at node 1 with reads at
    // node 2.
    EXPECT_TRUE(world.get(2, region).ok());
    world.net().stats().clear();
    for (int i = 0; i < 5; ++i) {
      EXPECT_TRUE(world.put(1, region, fill(4096, 1)).ok());
      EXPECT_TRUE(world.get(2, region).ok());
    }
    return cm_messages(world);
  };

  const auto crew = run(ProtocolId::kCrew, ConsistencyLevel::kStrict);
  const auto eventual =
      run(ProtocolId::kEventual, ConsistencyLevel::kEventual);
  // CREW must invalidate and re-fetch around every write; the eventual
  // protocol serves the reads locally. The strict protocol costs more
  // consistency traffic — the trade the paper's Section 2 describes.
  EXPECT_GT(crew, eventual);
}

}  // namespace
}  // namespace khz::core
