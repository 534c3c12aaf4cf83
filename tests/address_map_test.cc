// Unit and property tests for the address-map B+-tree (paper, Section 3.1).
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "location/address_map.h"

namespace khz::location {
namespace {

/// In-memory page store for direct tree testing.
class MemMapStore final : public MapPageStore {
 public:
  Bytes read_page(std::uint32_t index) override {
    auto it = pages_.find(index);
    return it == pages_.end() ? Bytes(page_size(), 0) : it->second;
  }
  void write_page(std::uint32_t index, const Bytes& data) override {
    pages_[index] = data;
    ++writes_;
  }
  [[nodiscard]] std::uint32_t page_size() const override { return 4096; }

  [[nodiscard]] std::size_t page_count() const { return pages_.size(); }
  [[nodiscard]] std::uint64_t writes() const { return writes_; }

 private:
  std::map<std::uint32_t, Bytes> pages_;
  std::uint64_t writes_ = 0;
};

AddressRange r(std::uint64_t base, std::uint64_t size) {
  return {{0, base}, size};
}

class AddressMapTest : public ::testing::Test {
 protected:
  AddressMapTest() : map_(store_) { AddressMap::format(store_); }
  MemMapStore store_;
  AddressMap map_;
};

TEST_F(AddressMapTest, FormattedDetection) {
  EXPECT_TRUE(map_.formatted());
  MemMapStore fresh;
  AddressMap unformatted(fresh);
  EXPECT_FALSE(unformatted.formatted());
}

TEST_F(AddressMapTest, InsertAndLookup) {
  ASSERT_TRUE(map_.insert(r(4096, 8192), {3}).ok());
  auto hit = map_.lookup({0, 4096});
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->range, r(4096, 8192));
  EXPECT_EQ(hit->homes, (std::vector<NodeId>{3}));
  // Interior and last byte.
  EXPECT_TRUE(map_.lookup({0, 8000}).has_value());
  EXPECT_TRUE(map_.lookup({0, 4096 + 8191}).has_value());
  // Just outside.
  EXPECT_FALSE(map_.lookup({0, 4095}).has_value());
  EXPECT_FALSE(map_.lookup({0, 4096 + 8192}).has_value());
}

TEST_F(AddressMapTest, EmptyTreeLookupMisses) {
  EXPECT_FALSE(map_.lookup({0, 0}).has_value());
  EXPECT_FALSE(map_.lookup({5, 5}).has_value());
}

TEST_F(AddressMapTest, OverlapRejected) {
  ASSERT_TRUE(map_.insert(r(1000, 1000), {1}).ok());
  EXPECT_EQ(map_.insert(r(1500, 100), {2}).error(),
            ErrorCode::kAlreadyReserved);  // inside
  EXPECT_EQ(map_.insert(r(500, 1000), {2}).error(),
            ErrorCode::kAlreadyReserved);  // straddles start
  EXPECT_EQ(map_.insert(r(1999, 10), {2}).error(),
            ErrorCode::kAlreadyReserved);  // straddles end
  EXPECT_EQ(map_.insert(r(900, 2000), {2}).error(),
            ErrorCode::kAlreadyReserved);  // encloses
  // Adjacent on both sides is fine.
  EXPECT_TRUE(map_.insert(r(0, 1000), {2}).ok());
  EXPECT_TRUE(map_.insert(r(2000, 1000), {2}).ok());
}

TEST_F(AddressMapTest, ZeroSizeAndTooManyHomesRejected) {
  EXPECT_EQ(map_.insert(r(0, 0), {1}).error(), ErrorCode::kBadArgument);
  EXPECT_EQ(map_.insert(r(0, 10), {1, 2, 3, 4, 5}).error(),
            ErrorCode::kBadArgument);
}

TEST_F(AddressMapTest, EraseMakesSpaceReusable) {
  ASSERT_TRUE(map_.insert(r(0, 100), {1}).ok());
  ASSERT_TRUE(map_.erase({0, 0}).ok());
  EXPECT_FALSE(map_.lookup({0, 50}).has_value());
  EXPECT_TRUE(map_.insert(r(0, 100), {2}).ok());
  EXPECT_EQ(map_.erase({0, 55}).error(), ErrorCode::kNotFound);
}

TEST_F(AddressMapTest, UpdateHomes) {
  ASSERT_TRUE(map_.insert(r(0, 100), {1}).ok());
  ASSERT_TRUE(map_.update_homes({0, 0}, {1, 2, 3}).ok());
  EXPECT_EQ(map_.lookup({0, 0})->homes, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(map_.update_homes({0, 999}, {1}).error(), ErrorCode::kNotFound);
}

TEST_F(AddressMapTest, ManyInsertsForceSplitsAndStayFindable) {
  // Insert enough disjoint regions to force several leaf and interior
  // splits (kMaxEntries = 64 per node).
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    ASSERT_TRUE(
        map_.insert(r(static_cast<std::uint64_t>(i) * 100, 60),
                    {static_cast<NodeId>(i % 7)})
            .ok())
        << i;
  }
  EXPECT_GT(map_.height(), 1u);
  EXPECT_GT(map_.pages_used(), 10u);
  for (int i = 0; i < n; ++i) {
    auto hit = map_.lookup({0, static_cast<std::uint64_t>(i) * 100 + 30});
    ASSERT_TRUE(hit.has_value()) << i;
    EXPECT_EQ(hit->homes[0], static_cast<NodeId>(i % 7));
    // Gaps between regions stay free.
    EXPECT_FALSE(
        map_.lookup({0, static_cast<std::uint64_t>(i) * 100 + 70}))
        << i;
  }
  EXPECT_EQ(map_.entries().size(), static_cast<std::size_t>(n));
}

TEST_F(AddressMapTest, EntriesComeBackInAddressOrder) {
  // Insert in a scrambled order; entries() must be sorted.
  Rng rng(99);
  std::vector<std::uint64_t> bases;
  for (int i = 0; i < 500; ++i) bases.push_back(i * 50);
  for (std::size_t i = bases.size(); i > 1; --i) {
    std::swap(bases[i - 1], bases[rng.below(i)]);
  }
  for (auto b : bases) ASSERT_TRUE(map_.insert(r(b, 50), {1}).ok());
  const auto all = map_.entries();
  ASSERT_EQ(all.size(), bases.size());
  for (std::size_t i = 1; i < all.size(); ++i) {
    EXPECT_LT(all[i - 1].range.base, all[i].range.base);
  }
}

TEST_F(AddressMapTest, RandomisedInsertEraseAgainstModel) {
  // Property test: the tree agrees with a std::map reference model under a
  // random workload of inserts, erases and lookups.
  Rng rng(7);
  std::map<std::uint64_t, std::uint64_t> model;  // base -> size
  for (int step = 0; step < 3000; ++step) {
    const auto op = rng.below(3);
    if (op == 0) {
      // Try inserting a random region.
      const std::uint64_t base = rng.below(100000);
      const std::uint64_t size = 1 + rng.below(200);
      bool overlaps = false;
      for (const auto& [b, s] : model) {
        if (base < b + s && b < base + size) {
          overlaps = true;
          break;
        }
      }
      const Status st = map_.insert(r(base, size), {1});
      EXPECT_EQ(st.ok(), !overlaps) << "base=" << base << " size=" << size;
      if (st.ok()) model[base] = size;
    } else if (op == 1 && !model.empty()) {
      // Erase a random existing region.
      auto it = model.begin();
      std::advance(it, rng.below(model.size()));
      EXPECT_TRUE(map_.erase({0, it->first}).ok());
      model.erase(it);
    } else {
      // Lookup agrees with the model.
      const std::uint64_t probe = rng.below(100000);
      const auto hit = map_.lookup({0, probe});
      bool in_model = false;
      for (const auto& [b, s] : model) {
        if (probe >= b && probe < b + s) in_model = true;
      }
      EXPECT_EQ(hit.has_value(), in_model) << probe;
    }
  }
}

TEST_F(AddressMapTest, WalkStepAgreesWithLookup) {
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(
        map_.insert(r(static_cast<std::uint64_t>(i) * 100, 80), {1}).ok());
  }
  // Walk the raw pages with the static helper, as a remote node would.
  Rng rng(3);
  for (int trial = 0; trial < 200; ++trial) {
    const GlobalAddress probe{0, rng.below(100 * 1000)};
    std::uint32_t page = 0;
    std::optional<MapEntry> walk_result;
    for (int depth = 0; depth < 16; ++depth) {
      const auto step = AddressMap::walk_step(store_.read_page(page), probe);
      if (step.found) {
        walk_result = step.entry;
        break;
      }
      if (!step.descend) break;
      page = step.child;
    }
    const auto direct = map_.lookup(probe);
    EXPECT_EQ(walk_result.has_value(), direct.has_value());
    if (walk_result && direct) {
      EXPECT_EQ(walk_result->range, direct->range);
    }
  }
}

TEST_F(AddressMapTest, SurvivesStoreRoundTrip) {
  // The tree state is entirely in the page store: a second AddressMap over
  // the same store sees everything (this is what replication-by-page gives
  // remote readers).
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(
        map_.insert(r(static_cast<std::uint64_t>(i) * 1000, 500), {2}).ok());
  }
  AddressMap reopened(store_);
  EXPECT_TRUE(reopened.formatted());
  EXPECT_EQ(reopened.entries().size(), 300u);
  EXPECT_TRUE(reopened.lookup({0, 1250}).has_value());
}

TEST_F(AddressMapTest, HugeAddressesBeyond64Bits) {
  const AddressRange high{{42, 0}, 4096};
  ASSERT_TRUE(map_.insert(high, {1}).ok());
  EXPECT_TRUE(map_.lookup({42, 100}).has_value());
  EXPECT_FALSE(map_.lookup({41, 100}).has_value());
  EXPECT_FALSE(map_.lookup({43, 0}).has_value());
}

}  // namespace
}  // namespace khz::location
