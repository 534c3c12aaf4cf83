// Pipelined multi-page lock acquisition and the batched page data plane:
// coalesced fetches, all-or-nothing rollback, ordered-acquisition progress
// under overlap, and resilience to message loss/duplication. Also the
// multi-region batches built on the same lock op (get_many/put_many), and
// the SyncClient defaults that stand in for them.
#include <gtest/gtest.h>

#include "core/client.h"

namespace khz::core {
namespace {

using consistency::LockMode;
using net::MsgType;

constexpr std::uint64_t kPage = 4096;

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i / kPage);
  }
  return b;
}

TEST(MultiPageLock, ColdReadCoalescesFetchesIntoOneBatch) {
  SimWorld world({.nodes = 2});
  const std::uint64_t bytes = 16 * kPage;
  auto base = world.create_region(0, bytes);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), bytes}, pattern(bytes, 0x40)).ok());

  world.net().stats().clear();
  auto got = world.get(1, {base.value(), bytes});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), pattern(bytes, 0x40));

  // All 16 cold pages ride one batched fetch + one batched response
  // instead of 16 request/reply pairs.
  const auto& per_type = world.net().stats().per_type;
  auto count = [&](MsgType t) {
    auto it = per_type.find(t);
    return it == per_type.end() ? std::uint64_t{0} : it->second;
  };
  EXPECT_EQ(count(MsgType::kPageBatchFetchReq), 1u);
  EXPECT_GE(count(MsgType::kPageBatchFetchResp), 1u);
  EXPECT_EQ(count(MsgType::kCm), 0u);  // nothing fell back to per-page

  const auto pages = world.node(1)
                         .metrics()
                         .histogram("crew.batch_pages")
                         .snapshot();
  EXPECT_EQ(pages.count, 1u);
  EXPECT_EQ(pages.max, 16u);
  const auto rpc = world.node(1)
                       .metrics()
                       .histogram("crew.batch_rpc_us")
                       .snapshot();
  EXPECT_EQ(rpc.count, 1u);
}

TEST(MultiPageLock, ColdWriteLockAlsoBatches) {
  SimWorld world({.nodes = 2});
  const std::uint64_t bytes = 8 * kPage;
  auto base = world.create_region(0, bytes);
  ASSERT_TRUE(base.ok());

  world.net().stats().clear();
  auto ctx = world.lock(1, {base.value(), bytes}, LockMode::kWrite);
  ASSERT_TRUE(ctx.ok());
  world.unlock(1, ctx.value());

  const auto& per_type = world.net().stats().per_type;
  auto it = per_type.find(MsgType::kPageBatchFetchReq);
  ASSERT_NE(it, per_type.end());
  EXPECT_EQ(it->second, 1u);
  const auto pages = world.node(1)
                         .metrics()
                         .histogram("crew.batch_pages")
                         .snapshot();
  EXPECT_EQ(pages.max, 8u);
}

TEST(MultiPageLock, PartialFailureReleasesEveryGrantedPage) {
  // Node 1 owns the first five pages; the home (node 0) then dies, so the
  // range lock's later pages can never be granted. The op must fail AND
  // leave no stray hold on the pages it had already locked.
  SimWorld world({.nodes = 2,
                  .rpc_timeout = 50'000,
                  .max_retries = 1});
  const std::uint64_t bytes = 8 * kPage;
  auto base = world.create_region(0, bytes);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(
      world.put(1, {base.value(), 5 * kPage}, pattern(5 * kPage, 1)).ok());

  world.net().set_node_up(0, false);

  std::optional<Result<consistency::LockContext>> out;
  world.node(1).lock({base.value(), bytes}, LockMode::kWrite,
                     [&](Result<consistency::LockContext> r) { out = r; });
  ASSERT_TRUE(world.pump_until([&] { return out.has_value(); }));
  ASSERT_FALSE(out->ok());
  EXPECT_EQ(out->error(), ErrorCode::kUnreachable);

  for (std::uint64_t p = 0; p < 8; ++p) {
    auto& info = world.node(1).page_info(base.value().plus(p * kPage));
    EXPECT_EQ(info.write_holds, 0u) << "page " << p;
    EXPECT_EQ(info.read_holds, 0u) << "page " << p;
  }
  EXPECT_EQ(world.node(1).metrics().counter("node.locks_failed").value(),
            1u);

  // The released pages are actually reusable: a lock over just the pages
  // node 1 still owns succeeds without the home.
  auto retry = world.lock(1, {base.value(), 5 * kPage}, LockMode::kWrite);
  ASSERT_TRUE(retry.ok());
  world.unlock(1, retry.value());
}

TEST(MultiPageLock, OverlappingRangeLocksBothMakeProgress) {
  // Two writers repeatedly lock overlapping page ranges. Ascending-address
  // hold order guarantees the overlap region cannot deadlock; both ops
  // must complete every round.
  SimWorld world({.nodes = 3});
  const std::uint64_t bytes = 12 * kPage;
  auto base = world.create_region(0, bytes);
  ASSERT_TRUE(base.ok());

  for (int round = 0; round < 5; ++round) {
    std::optional<Result<consistency::LockContext>> a, b;
    world.node(1).lock({base.value(), 8 * kPage}, LockMode::kWrite,
                       [&](Result<consistency::LockContext> r) { a = r; });
    world.node(2).lock({base.value().plus(4 * kPage), 8 * kPage},
                       LockMode::kWrite,
                       [&](Result<consistency::LockContext> r) { b = r; });
    // The first grant holds pages the second needs; release it as soon as
    // it lands so the second can finish.
    ASSERT_TRUE(world.pump_until([&] { return a.has_value() || b.has_value(); }))
        << "round " << round;
    if (a.has_value()) {
      ASSERT_TRUE(a->ok()) << "round " << round;
      world.unlock(1, a->value());
      ASSERT_TRUE(world.pump_until([&] { return b.has_value(); }))
          << "round " << round;
      ASSERT_TRUE(b->ok()) << "round " << round;
      world.unlock(2, b->value());
    } else {
      ASSERT_TRUE(b->ok()) << "round " << round;
      world.unlock(2, b->value());
      ASSERT_TRUE(world.pump_until([&] { return a.has_value(); }))
          << "round " << round;
      ASSERT_TRUE(a->ok()) << "round " << round;
      world.unlock(1, a->value());
    }
  }
}

TEST(MultiPageLock, BatchFetchSurvivesDropAndDuplication) {
  // Requester -> home loses and duplicates messages (lost batch requests
  // fall back to the per-page retry path); home -> requester duplicates
  // grants (the unsolicited-grant guard must drop the replays). Drops on
  // the home -> sharer direction are excluded deliberately: a lost
  // invalidate makes the home presume the sharer dead after its timeout —
  // the protocol's documented availability tradeoff — which would leave a
  // legitimately stale copy and has nothing to do with batching.
  SimWorld world({.nodes = 2, .seed = 7});
  net::LinkProfile to_home = net::LinkProfile::lan();
  to_home.drop_probability = 0.05;
  to_home.dup_probability = 0.05;
  net::LinkProfile from_home = net::LinkProfile::lan();
  from_home.dup_probability = 0.05;
  world.net().set_link(1, 0, to_home);
  world.net().set_link(0, 1, from_home);
  const std::uint64_t bytes = 16 * kPage;
  auto base = world.create_region(0, bytes);
  ASSERT_TRUE(base.ok());

  for (int round = 0; round < 3; ++round) {
    const auto v = static_cast<std::uint8_t>(0x10 + round);
    ASSERT_TRUE(world.put(0, {base.value(), bytes}, pattern(bytes, v)).ok())
        << "round " << round;
    auto got = world.get(1, {base.value(), bytes});
    ASSERT_TRUE(got.ok()) << "round " << round;
    EXPECT_EQ(got.value(), pattern(bytes, v)) << "round " << round;
  }
  EXPECT_GT(world.net().stats().messages_duplicated, 0u);
}

TEST(MultiPageLock, ReplicateToShipsRegionAsOneBatchedPush) {
  SimWorld world({.nodes = 3});
  const std::uint64_t bytes = 6 * kPage;
  auto base = world.create_region(0, bytes);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), bytes}, pattern(bytes, 0x55)).ok());

  world.net().stats().clear();
  ASSERT_TRUE(world.replicate_to(0, base.value(), 2).ok());
  const auto& per_type = world.net().stats().per_type;
  auto it = per_type.find(MsgType::kReplicaPush);
  ASSERT_NE(it, per_type.end());
  EXPECT_EQ(it->second, 1u);  // six pages, one message

  // The replica actually landed: node 2 serves the data from its copy.
  auto got = world.get(2, {base.value(), bytes});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), pattern(bytes, 0x55));
}

/// Forwards only the single-range calls, so get_many/put_many run the
/// SyncClient defaults on top of them (as a tracing decorator would).
class SingleCallClient final : public SyncClient {
 public:
  explicit SingleCallClient(SyncClient& inner) : inner_(inner) {}
  Result<GlobalAddress> reserve(std::uint64_t size,
                                const RegionAttrs& attrs) override {
    return inner_.reserve(size, attrs);
  }
  Status unreserve(const GlobalAddress& base) override {
    return inner_.unreserve(base);
  }
  Status allocate(const AddressRange& range) override {
    return inner_.allocate(range);
  }
  Status deallocate(const AddressRange& range) override {
    return inner_.deallocate(range);
  }
  Result<consistency::LockContext> lock(const AddressRange& range,
                                        LockMode mode) override {
    return inner_.lock(range, mode);
  }
  void unlock(const consistency::LockContext& ctx) override {
    inner_.unlock(ctx);
  }
  Result<Bytes> read(const consistency::LockContext& ctx,
                     std::uint64_t offset, std::uint64_t len) override {
    return inner_.read(ctx, offset, len);
  }
  Status write(const consistency::LockContext& ctx, std::uint64_t offset,
               std::span<const std::uint8_t> data) override {
    return inner_.write(ctx, offset, data);
  }
  Result<RegionAttrs> getattr(const GlobalAddress& base) override {
    return inner_.getattr(base);
  }
  Status setattr(const GlobalAddress& base,
                 const RegionAttrs& attrs) override {
    return inner_.setattr(base, attrs);
  }
  Result<std::vector<NodeId>> locate(const GlobalAddress& addr) override {
    return inner_.locate(addr);
  }
  [[nodiscard]] NodeId node_id() const override { return inner_.node_id(); }

 private:
  SyncClient& inner_;
};

/// `n` one-page regions homed on node 0, each filled with its own byte.
std::vector<GlobalAddress> make_regions(SimWorld& world, std::size_t n) {
  std::vector<GlobalAddress> out;
  for (std::size_t i = 0; i < n; ++i) {
    auto base = world.create_region(0, kPage);
    EXPECT_TRUE(base.ok());
    EXPECT_TRUE(world
                    .put(0, {base.value(), kPage},
                         Bytes(kPage, static_cast<std::uint8_t>(0x20 + i)))
                    .ok());
    out.push_back(base.value());
  }
  return out;
}

std::uint64_t holds_on(SimWorld& world, NodeId n, const GlobalAddress& page) {
  const auto& info = world.node(n).page_info(page);
  return info.read_holds + info.write_holds;
}

TEST(MultiRangeBatch, ColdGetManyAcrossRegionsIsOneBatchedFetch) {
  SimWorld world({.nodes = 2});
  const auto regions = make_regions(world, 4);
  std::vector<AddressRange> ranges;
  for (const auto& r : regions) ranges.push_back({r, kPage});

  world.net().stats().clear();
  auto got = world.get_many(1, ranges);
  ASSERT_TRUE(got.ok()) << to_string(got.error());
  ASSERT_EQ(got.value().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(got.value()[i],
              Bytes(kPage, static_cast<std::uint8_t>(0x20 + i)));
  }
  // One prefetch phase over all four regions: the fetches bound for their
  // common home ride one batch.
  const auto& per_type = world.net().stats().per_type;
  auto it = per_type.find(MsgType::kPageBatchFetchReq);
  ASSERT_NE(it, per_type.end());
  EXPECT_EQ(it->second, 1u);
  const auto shape =
      world.node(1).metrics().histogram("op.lock.ranges").snapshot();
  EXPECT_EQ(shape.max, 4u);
}

TEST(MultiRangeBatch, OppositeOrderPutManyNeverDeadlocks) {
  // Two nodes put the same three regions, listed in opposite orders. Holds
  // go in ascending address order whatever the listing, so both always
  // finish.
  SimWorld world({.nodes = 3});
  const auto regions = make_regions(world, 3);
  for (int round = 0; round < 20; ++round) {
    const auto v = static_cast<std::uint8_t>(round);
    std::vector<RangeWrite> fwd, rev;
    for (std::size_t i = 0; i < 3; ++i) {
      fwd.push_back({{regions[i], kPage}, Bytes(kPage, v)});
      rev.push_back({{regions[2 - i], kPage},
                     Bytes(kPage, static_cast<std::uint8_t>(v + 100))});
    }
    std::optional<Status> a, b;
    world.node(1).put_many(fwd, [&](Status s) { a = s; });
    world.node(2).put_many(rev, [&](Status s) { b = s; });
    ASSERT_TRUE(world.pump_until([&] { return a && b; })) << "round " << round;
    ASSERT_TRUE(a->ok()) << "round " << round;
    ASSERT_TRUE(b->ok()) << "round " << round;
    // Whichever went last wrote all three: never a mix.
    auto got = world.get_many(0, {{regions[0], kPage},
                                  {regions[1], kPage},
                                  {regions[2], kPage}});
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value()[0], got.value()[1]) << "round " << round;
    EXPECT_EQ(got.value()[1], got.value()[2]) << "round " << round;
  }
}

TEST(MultiRangeBatch, UnallocatedRangeFailsTheWholeBatch) {
  SimWorld world({.nodes = 3});
  const auto regions = make_regions(world, 2);
  auto bare = world.reserve(0, kPage);  // reserved, never allocated
  ASSERT_TRUE(bare.ok());
  const std::vector<AddressRange> ranges{
      {regions[0], kPage}, {bare.value(), kPage}, {regions[1], kPage}};

  auto got = world.get_many(1, ranges);
  EXPECT_EQ(got.error(), ErrorCode::kNotAllocated);
  const Status put = world.put_many(
      1, {{ranges[0], Bytes(8, 1)}, {ranges[1], Bytes(8, 2)},
          {ranges[2], Bytes(8, 3)}});
  EXPECT_EQ(put.error(), ErrorCode::kNotAllocated);
  EXPECT_EQ(world.node(1).metrics().counter("node.locks_failed").value(),
            2u);

  // No hold leaked: node 1 holds nothing, and node 2 can write-lock every
  // other range.
  for (const auto& r : regions) EXPECT_EQ(holds_on(world, 1, r), 0u);
  for (const auto& r : regions) {
    auto ctx = world.lock(2, {r, kPage}, LockMode::kWrite);
    ASSERT_TRUE(ctx.ok()) << to_string(ctx.error());
    world.unlock(2, ctx.value());
  }
}

TEST(MultiRangeBatch, AclDeniedRangeFailsTheWholeBatch) {
  SimWorld world({.nodes = 3});
  const auto regions = make_regions(world, 2);
  auto denied = world.create_region(0, kPage);
  ASSERT_TRUE(denied.ok());
  RegionAttrs locked;
  locked.acl.owner = 42;  // no node's principal
  locked.acl.world_write = false;
  ASSERT_TRUE(world.setattr(0, denied.value(), locked).ok());

  const Status put = world.put_many(
      1, {{{regions[0], kPage}, Bytes(8, 1)},
          {{denied.value(), kPage}, Bytes(8, 2)},
          {{regions[1], kPage}, Bytes(8, 3)}});
  EXPECT_EQ(put.error(), ErrorCode::kAccessDenied);
  // Reads are still allowed there.
  EXPECT_TRUE(world.get_many(1, {{regions[0], kPage}, {denied.value(), kPage}})
                  .ok());

  for (const auto& r : regions) {
    EXPECT_EQ(holds_on(world, 1, r), 0u);
    auto ctx = world.lock(2, {r, kPage}, LockMode::kWrite);
    ASSERT_TRUE(ctx.ok()) << to_string(ctx.error());
    world.unlock(2, ctx.value());
  }
  // Nothing was written anywhere.
  auto got = world.get(2, {regions[0], kPage});
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), Bytes(kPage, 0x20));
}

TEST(MultiRangeBatch, StaleHomeInsideABatchRelocates) {
  // One region of a batch moved home after node 3 cached its descriptor.
  // The bounce re-resolves that region alone and the batch still lands.
  SimWorld world({.nodes = 4});
  const auto regions = make_regions(world, 3);
  std::vector<AddressRange> ranges;
  for (const auto& r : regions) ranges.push_back({r, kPage});
  ASSERT_TRUE(world.get_many(3, ranges).ok());

  ASSERT_TRUE(world.migrate(0, regions[1], 2).ok());
  world.pump_for(1'000'000);
  // Drop node 3's copy so its next access must reach a home, through the
  // cached descriptor that still names node 0.
  world.node(3).page_info(regions[1]).state = storage::PageState::kInvalid;
  world.node(3).storage().erase(regions[1]);

  std::vector<RangeWrite> writes;
  for (const auto& r : ranges) writes.push_back({r, Bytes(kPage, 0x5C)});
  ASSERT_TRUE(world.put_many(1, writes).ok());
  auto got = world.get_many(3, ranges);
  ASSERT_TRUE(got.ok()) << to_string(got.error());
  for (const auto& b : got.value()) EXPECT_EQ(b, Bytes(kPage, 0x5C));
  for (const auto& r : regions) EXPECT_EQ(holds_on(world, 3, r), 0u);
}

/// The malformed batches both batch implementations refuse up front.
void expect_malformed_batches_rejected(SyncClient& c,
                                       const GlobalAddress& one,
                                       const GlobalAddress& two) {
  EXPECT_EQ(c.get_many({}).error(), ErrorCode::kBadArgument);
  EXPECT_EQ(c.put_many({}).error(), ErrorCode::kBadArgument);
  // A zero-size range.
  EXPECT_EQ(c.get_many({{one, kPage}, {two, 0}}).error(),
            ErrorCode::kBadArgument);
  EXPECT_EQ(c.put_many({{{one, 0}, {}}}).error(), ErrorCode::kBadArgument);
  // Overlapping ranges, and two disjoint ranges on one page.
  EXPECT_EQ(c.get_many({{two, kPage}, {one, 2 * kPage}, {two.plus(8), 8}})
                .error(),
            ErrorCode::kBadArgument);
  EXPECT_EQ(c.put_many({{{one, 16}, Bytes(4, 1)},
                        {{one.plus(100), 16}, Bytes(4, 2)}})
                .error(),
            ErrorCode::kBadArgument);
  // Data longer than its range.
  EXPECT_EQ(c.put_many({{{one, 8}, Bytes(9, 1)}}).error(),
            ErrorCode::kBadArgument);
}

TEST(MultiRangeBatch, MalformedBatchesAreBadArguments) {
  SimWorld world({.nodes = 2});
  auto base = world.create_region(0, 4 * kPage);
  ASSERT_TRUE(base.ok());
  SimClient client(world, 1);
  SingleCallClient defaults(client);
  for (SyncClient* c : {static_cast<SyncClient*>(&client),
                        static_cast<SyncClient*>(&defaults)}) {
    expect_malformed_batches_rejected(*c, base.value(),
                                      base.value().plus(2 * kPage));
  }
  // Nothing was left held.
  for (std::uint64_t p = 0; p < 4; ++p) {
    EXPECT_EQ(holds_on(world, 1, base.value().plus(p * kPage)), 0u);
  }
  auto ctx = world.lock(0, {base.value(), 4 * kPage}, LockMode::kWrite);
  ASSERT_TRUE(ctx.ok());
  world.unlock(0, ctx.value());
}

TEST(MultiRangeBatch, OneRangeBatchMatchesGetAndPut) {
  SimWorld world({.nodes = 2});
  auto base = world.create_region(0, 2 * kPage);
  ASSERT_TRUE(base.ok());
  SimClient c0(world, 0);
  SimClient c1(world, 1);
  const AddressRange straddle{base.value().plus(kPage - 100), 200};
  for (const AddressRange& r : {AddressRange{base.value(), 2 * kPage},
                                straddle}) {
    const Bytes first = pattern(r.size, 0x31);
    ASSERT_TRUE(c0.put_many({{r, first}}).ok());
    for (SyncClient* c : {&c0, &c1}) {
      auto one = c->get(r);
      auto many = c->get_many({r});
      ASSERT_TRUE(one.ok());
      ASSERT_TRUE(many.ok());
      EXPECT_EQ(one.value(), first);
      ASSERT_EQ(many.value().size(), 1u);
      EXPECT_EQ(many.value()[0], first);
    }
    const Bytes second = pattern(r.size, 0x52);
    ASSERT_TRUE(c1.put(r, second).ok());
    auto many = c0.get_many({r});
    ASSERT_TRUE(many.ok());
    EXPECT_EQ(many.value()[0], second);
  }
}

TEST(MultiRangeBatch, DefaultBatchHoldsEveryRangeAtOnce) {
  // The SyncClient default locks all ranges before reading any, so a
  // decorator that forwards only single calls still reads one write.
  SimWorld world({.nodes = 3});
  const auto regions = make_regions(world, 3);
  SimClient inner(world, 1);
  SingleCallClient defaults(inner);
  std::vector<AddressRange> ranges;
  for (auto it = regions.rbegin(); it != regions.rend(); ++it) {
    ranges.push_back({*it, kPage});
  }
  std::vector<RangeWrite> writes;
  for (const auto& r : ranges) writes.push_back({r, Bytes(kPage, 0x77)});
  ASSERT_TRUE(defaults.put_many(writes).ok());
  auto got = defaults.get_many(ranges);
  ASSERT_TRUE(got.ok());
  for (const auto& b : got.value()) EXPECT_EQ(b, Bytes(kPage, 0x77));
  for (const auto& r : regions) EXPECT_EQ(holds_on(world, 1, r), 0u);
}

TEST(MultiRangeBatch, GetManySurvivesLossAndDuplication) {
  // Same fault mix as BatchFetchSurvivesDropAndDuplication, over a batch
  // of five regions instead of one multi-page region.
  SimWorld world({.nodes = 2, .seed = 11});
  const auto regions = make_regions(world, 5);
  net::LinkProfile to_home = net::LinkProfile::lan();
  to_home.drop_probability = 0.05;
  to_home.dup_probability = 0.05;
  net::LinkProfile from_home = net::LinkProfile::lan();
  from_home.dup_probability = 0.05;
  world.net().set_link(1, 0, to_home);
  world.net().set_link(0, 1, from_home);
  std::vector<AddressRange> ranges;
  for (const auto& r : regions) ranges.push_back({r, kPage});

  for (int round = 0; round < 4; ++round) {
    const auto v = static_cast<std::uint8_t>(0x40 + round);
    std::vector<RangeWrite> writes;
    for (const auto& r : ranges) writes.push_back({r, Bytes(kPage, v)});
    ASSERT_TRUE(world.put_many(0, writes).ok()) << "round " << round;
    auto got = world.get_many(1, ranges);
    ASSERT_TRUE(got.ok()) << "round " << round;
    for (const auto& b : got.value()) {
      EXPECT_EQ(b, Bytes(kPage, v)) << "round " << round;
    }
  }
  EXPECT_GT(world.net().stats().messages_duplicated, 0u);
}

}  // namespace
}  // namespace khz::core
