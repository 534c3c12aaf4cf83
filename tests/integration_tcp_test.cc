// Integration tests over real TCP sockets: the identical node logic that
// the simulator exercises, driven through kernel sockets and executor
// threads — demonstrating the paper's portability claim that only the
// messaging layer is system-dependent (Section 5).
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "core/tcp_world.h"
#include "kfs/fs.h"

namespace khz::core {
namespace {

using consistency::LockMode;

Bytes fill(std::size_t n, std::uint8_t v) { return Bytes(n, v); }

Bytes pattern(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return b;
}

/// Explicit three-call read: lock(kRead) + read + unlock.
Result<Bytes> read_by_three_calls(SyncClient& c, const AddressRange& r) {
  auto ctx = c.lock(r, LockMode::kRead);
  if (!ctx) return ctx.error();
  auto out = c.read(ctx.value(), 0, r.size);
  c.unlock(ctx.value());
  return out;
}

/// Explicit three-call write: lock(kWrite) + write + unlock.
Status write_by_three_calls(SyncClient& c, const AddressRange& r,
                            const Bytes& data) {
  auto ctx = c.lock(r, LockMode::kWrite);
  if (!ctx) return ctx.error();
  const Status s = c.write(ctx.value(), 0, data);
  c.unlock(ctx.value());
  return s;
}

/// The one-visit get/put and the three-call sequence see the same bytes,
/// in both directions, over a whole two-page region and a sub-range that
/// straddles the page boundary, from the writer's node and another node.
void expect_one_visit_matches_three_calls(TcpClient& a, TcpClient& b,
                                          const GlobalAddress& base) {
  const AddressRange whole{base, 8192};
  const Bytes first = pattern(8192, 3);
  ASSERT_TRUE(a.put(whole, first).ok());
  for (TcpClient* c : {&a, &b}) {
    auto three = read_by_three_calls(*c, whole);
    ASSERT_TRUE(three.ok()) << to_string(three.error());
    EXPECT_EQ(three.value(), first);
    auto one = c->get(whole);
    ASSERT_TRUE(one.ok()) << to_string(one.error());
    EXPECT_EQ(one.value(), first);
  }

  const Bytes second = pattern(8192, 91);
  ASSERT_TRUE(write_by_three_calls(b, whole, second).ok());
  for (TcpClient* c : {&a, &b}) {
    auto one = c->get(whole);
    ASSERT_TRUE(one.ok()) << to_string(one.error());
    EXPECT_EQ(one.value(), second);
  }

  const AddressRange mid{base.plus(4000), 200};
  const Bytes patch = pattern(200, 200);
  ASSERT_TRUE(a.put(mid, patch).ok());
  auto sub = b.get(mid);
  ASSERT_TRUE(sub.ok()) << to_string(sub.error());
  EXPECT_EQ(sub.value(), patch);
  auto three = read_by_three_calls(a, whole);
  ASSERT_TRUE(three.ok()) << to_string(three.error());
  Bytes expect = second;
  std::copy(patch.begin(), patch.end(), expect.begin() + 4000);
  EXPECT_EQ(three.value(), expect);
}

TEST(TcpIntegration, ReserveWriteReadAcrossRealSockets) {
  TcpWorld world({.nodes = 3, .base_port = 30200});
  TcpClient alice(world, 1);
  TcpClient bob(world, 2);

  auto base = alice.create_region(8192);
  ASSERT_TRUE(base.ok()) << to_string(base.error());

  ASSERT_TRUE(alice.put({base.value(), 8192}, fill(8192, 0xC3)).ok());
  auto r = bob.get({base.value(), 8192});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0xC3);
  EXPECT_EQ(r.value()[8191], 0xC3);
}

TEST(TcpIntegration, CrewExclusionHoldsOverTcp) {
  TcpWorld world({.nodes = 3, .base_port = 30210});
  TcpClient c1(world, 1);
  TcpClient c2(world, 2);
  auto base = c1.create_region(4096);
  ASSERT_TRUE(base.ok());

  // Sequential writes from different nodes always read back coherently.
  for (int i = 1; i <= 5; ++i) {
    TcpClient& writer = (i % 2 == 0) ? c1 : c2;
    TcpClient& reader = (i % 2 == 0) ? c2 : c1;
    ASSERT_TRUE(writer
                    .put({base.value(), 4096},
                         fill(4096, static_cast<std::uint8_t>(i)))
                    .ok())
        << i;
    auto r = reader.get({base.value(), 4096});
    ASSERT_TRUE(r.ok()) << i;
    EXPECT_EQ(r.value()[0], i) << i;
  }
}

TEST(TcpIntegration, AttributesAndLocationQueriesWork) {
  TcpWorld world({.nodes = 3, .base_port = 30220});
  TcpClient c1(world, 1);
  RegionAttrs attrs;
  attrs.min_replicas = 2;
  auto base = c1.create_region(4096, attrs);
  ASSERT_TRUE(base.ok());

  auto got = c1.getattr(base.value());
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().min_replicas, 2u);

  auto holders = c1.locate(base.value());
  ASSERT_TRUE(holders.ok());
  EXPECT_FALSE(holders.value().empty());
}

TEST(TcpIntegration, KfsRunsUnmodifiedOverTcp) {
  TcpWorld world({.nodes = 3, .base_port = 30230});
  TcpClient c0(world, 0);
  TcpClient c2(world, 2);

  auto super = kfs::FileSystem::mkfs(c0);
  ASSERT_TRUE(super.ok()) << to_string(super.error());
  auto fs0 = kfs::FileSystem::mount(c0, super.value());
  ASSERT_TRUE(fs0.ok());
  auto fs2 = kfs::FileSystem::mount(c2, super.value());
  ASSERT_TRUE(fs2.ok());

  ASSERT_TRUE(fs0.value().mkdir("/shared").ok());
  auto fh = fs0.value().create("/shared/notes.txt");
  ASSERT_TRUE(fh.ok());
  const std::string text = "written over real sockets";
  ASSERT_TRUE(fs0.value()
                  .write(fh.value(), 0,
                         {reinterpret_cast<const std::uint8_t*>(text.data()),
                          text.size()})
                  .ok());

  auto fh2 = fs2.value().open("/shared/notes.txt");
  ASSERT_TRUE(fh2.ok());
  auto back = fs2.value().read(fh2.value(), 0, text.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(std::string(back.value().begin(), back.value().end()), text);
}

TEST(TcpIntegration, MigrationOverRealSockets) {
  TcpWorld world({.nodes = 3, .base_port = 30240});
  TcpClient c0(world, 0);
  TcpClient c1(world, 1);

  auto base = c0.create_region(4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(c0.put({base.value(), 4096}, fill(4096, 0x19)).ok());

  // Migrate the home from node 0 to node 2 through the executor API.
  std::mutex mu;
  std::condition_variable cv;
  std::optional<Status> migrated;
  world.transport(0).run_on_executor([&] {
    world.node(0).migrate(base.value(), 2, [&](Status s) {
      std::lock_guard lk(mu);
      migrated = s;
      cv.notify_one();
    });
  });
  {
    std::unique_lock lk(mu);
    ASSERT_TRUE(cv.wait_for(lk, std::chrono::seconds(10),
                            [&] { return migrated.has_value(); }));
  }
  ASSERT_TRUE(migrated->ok()) << to_string(migrated->error());

  // Data remains readable and writable through the new home.
  auto r = c1.get({base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0x19);
  ASSERT_TRUE(c1.put({base.value(), 4096}, fill(4096, 0x20)).ok());
  EXPECT_EQ(c0.get({base.value(), 4096}).value()[0], 0x20);
}

TEST(TcpIntegration, TransportStatsSeeClusterTraffic) {
  TcpWorld world({.nodes = 3, .base_port = 30250});
  TcpClient c1(world, 1);
  TcpClient c2(world, 2);
  auto base = c1.create_region(4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(c1.put({base.value(), 4096}, fill(4096, 0x5C)).ok());
  auto r = c2.get({base.value(), 4096});
  ASSERT_TRUE(r.ok());

  // The data plane ran over real sockets: every endpoint's counters are
  // visible through the world, and nothing backed up or was shed.
  const auto total = world.total_transport_stats();
  EXPECT_GT(total.messages_sent, 0u);
  EXPECT_GT(total.bytes_sent, 4096u);  // at least one page crossed the wire
  EXPECT_EQ(total.frames_dropped, 0u);
  EXPECT_GT(world.transport_stats(2).messages_sent, 0u);
}

TEST(TcpIntegration, ConcurrentClientsFromSeparateThreads) {
  TcpWorld world({.nodes = 3, .base_port = 30260});
  TcpClient c0(world, 0);
  auto base = c0.create_region(4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(c0.put({base.value(), 8}, fill(8, 0)).ok());

  // Two OS threads increment a shared counter through different nodes;
  // Khazana's locking must linearize them.
  auto worker = [&](NodeId node, int rounds) {
    TcpClient c(world, node);
    for (int i = 0; i < rounds; ++i) {
      auto ctx = c.lock({base.value(), 8}, LockMode::kWrite);
      ASSERT_TRUE(ctx.ok());
      auto cur = c.read(ctx.value(), 0, 8);
      ASSERT_TRUE(cur.ok());
      std::uint64_t v = 0;
      std::memcpy(&v, cur.value().data(), 8);
      ++v;
      Bytes out(8);
      std::memcpy(out.data(), &v, 8);
      ASSERT_TRUE(c.write(ctx.value(), 0, out).ok());
      c.unlock(ctx.value());
    }
  };
  std::thread t1(worker, 1, 10);
  std::thread t2(worker, 2, 10);
  t1.join();
  t2.join();

  auto final = c0.get({base.value(), 8});
  ASSERT_TRUE(final.ok());
  std::uint64_t v = 0;
  std::memcpy(&v, final.value().data(), 8);
  EXPECT_EQ(v, 20u);
}

// ---------------------------------------------------------------------------
// One executor visit per get/put (Node::get/put behind TcpClient)
// ---------------------------------------------------------------------------

TEST(TcpIntegration, OneVisitGetPutMatchThreeCalls) {
  TcpWorld world({.nodes = 3, .base_port = 30270});
  TcpClient c1(world, 1);
  TcpClient c2(world, 2);
  auto base = c1.create_region(8192);
  ASSERT_TRUE(base.ok()) << to_string(base.error());
  expect_one_visit_matches_three_calls(c1, c2, base.value());
}

TEST(TcpIntegration, OneVisitGetReportsLockError) {
  TcpWorld world({.nodes = 3, .base_port = 30280});
  TcpClient c1(world, 1);
  // Reserved but never allocated: the lock fails, and get/put say why.
  auto base = c1.reserve(4096, {});
  ASSERT_TRUE(base.ok()) << to_string(base.error());
  auto r = c1.get({base.value(), 4096});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), ErrorCode::kNotAllocated);
  const Status s = c1.put({base.value(), 4096}, fill(4096, 1));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), ErrorCode::kNotAllocated);
}

TEST(TcpIntegration, OneVisitOversizePutReleasesItsLock) {
  TcpWorld world({.nodes = 3, .base_port = 30290});
  TcpClient c1(world, 1);
  TcpClient c2(world, 2);
  auto base = c1.create_region(8192);
  ASSERT_TRUE(base.ok()) << to_string(base.error());
  const AddressRange first_page{base.value(), 4096};
  ASSERT_TRUE(c1.put(first_page, fill(4096, 0x0A)).ok());

  // More bytes than the locked range: the write is refused...
  const Status big = c1.put(first_page, fill(8192, 0x0B));
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.error(), ErrorCode::kBadArgument);
  // ...and the write lock was still released: another node takes it.
  ASSERT_TRUE(c2.put(first_page, fill(4096, 0x0C)).ok());
  auto r = c1.get(first_page);
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value(), fill(4096, 0x0C));
}

TEST(TcpIntegration, OneVisitStampedGetPutNeverTearAcrossThreads) {
  TcpWorld world({.nodes = 3, .base_port = 30300});
  constexpr std::size_t kPage = 4096;
  constexpr int kRegions = 3;
  constexpr int kThreads = 4;  // two on node 1, two on node 2
  constexpr int kOps = 300;

  // Every page written carries its stamp in the first word and a body
  // derived from it; a read must match one stamp that was written.
  auto stamped = [](std::uint64_t stamp) {
    Bytes b(kPage);
    std::memcpy(b.data(), &stamp, sizeof stamp);
    for (std::size_t i = sizeof stamp; i < kPage; ++i) {
      b[i] = static_cast<std::uint8_t>(stamp * 131 + i);
    }
    return b;
  };
  std::mutex mu;
  std::set<std::uint64_t> written;
  auto record = [&](std::uint64_t stamp) {
    std::lock_guard lk(mu);
    written.insert(stamp);
  };

  std::vector<GlobalAddress> regions;
  {
    TcpClient c0(world, 0);
    for (int r = 0; r < kRegions; ++r) {
      auto base = c0.create_region(kPage);
      ASSERT_TRUE(base.ok()) << to_string(base.error());
      const std::uint64_t stamp = 1'000'000 + static_cast<std::uint64_t>(r);
      record(stamp);
      ASSERT_TRUE(c0.put({base.value(), kPage}, stamped(stamp)).ok());
      regions.push_back(base.value());
    }
  }

  std::atomic<int> bad{0};
  std::atomic<int> failed{0};
  auto worker = [&](int t) {
    TcpClient c(world, static_cast<NodeId>(1 + t % 2));
    std::uint64_t x = 0x9E3779B97F4A7C15ull * static_cast<std::uint64_t>(t + 1);
    for (int i = 0; i < kOps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      const AddressRange range{regions[x % kRegions], kPage};
      if ((x >> 8) % 2 == 0) {
        const std::uint64_t stamp =
            (static_cast<std::uint64_t>(t + 1) << 32) |
            static_cast<std::uint64_t>(i);
        record(stamp);  // before the put: a reader may see it at once
        if (!c.put(range, stamped(stamp)).ok()) failed.fetch_add(1);
        continue;
      }
      auto r = c.get(range);
      if (!r.ok() || r.value().size() != kPage) {
        failed.fetch_add(1);
        continue;
      }
      std::uint64_t stamp = 0;
      std::memcpy(&stamp, r.value().data(), sizeof stamp);
      bool known = false;
      {
        std::lock_guard lk(mu);
        known = written.contains(stamp);
      }
      if (!known || r.value() != stamped(stamp)) bad.fetch_add(1);
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(worker, t);
  for (auto& th : threads) th.join();

  EXPECT_EQ(failed.load(), 0);
  EXPECT_EQ(bad.load(), 0) << "torn or never-written page read";
}

// ---------------------------------------------------------------------------
// Multi-range batches in one visit (Node::get_many/put_many behind TcpClient)
// ---------------------------------------------------------------------------

TEST(TcpIntegration, WrappingBoundsAreRefusedOnTheExecutor) {
  // offset + len wraps for each of these. An exception thrown on a node's
  // executor thread would end the process; each must come back as
  // kBadArgument, and the node must keep serving.
  TcpWorld world({.nodes = 3, .base_port = 30430});
  TcpClient c1(world, 1);
  auto base = c1.create_region(4096);
  ASSERT_TRUE(base.ok()) << to_string(base.error());
  const AddressRange page{base.value(), 4096};
  ASSERT_TRUE(c1.put(page, fill(4096, 0x21)).ok());

  auto rd = c1.lock(page, LockMode::kRead);
  ASSERT_TRUE(rd.ok());
  EXPECT_EQ(c1.read(rd.value(), 1, UINT64_MAX).error(),
            ErrorCode::kBadArgument);
  c1.unlock(rd.value());
  auto wr = c1.lock(page, LockMode::kWrite);
  ASSERT_TRUE(wr.ok());
  EXPECT_EQ(c1.write(wr.value(), UINT64_MAX - 3, fill(8, 1)).error(),
            ErrorCode::kBadArgument);
  c1.unlock(wr.value());
  EXPECT_EQ(c1.put_many({{{base.value(), 8}, fill(9, 1)}}).error(),
            ErrorCode::kBadArgument);

  auto r = c1.get(page);
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value(), fill(4096, 0x21));
}

TEST(TcpIntegration, BatchesMatchSingleCallsAcrossNodes) {
  TcpWorld world({.nodes = 3, .base_port = 30440});
  TcpClient c1(world, 1);
  TcpClient c2(world, 2);
  std::vector<AddressRange> ranges;
  for (int i = 0; i < 3; ++i) {
    auto base = c1.create_region(8192);
    ASSERT_TRUE(base.ok()) << to_string(base.error());
    ranges.push_back({base.value(), 8192});
  }
  // One-range batches see the same bytes as get/put.
  ASSERT_TRUE(c1.put_many({{ranges[0], pattern(8192, 5)}}).ok());
  auto one = c2.get(ranges[0]);
  auto many = c2.get_many({ranges[0]});
  ASSERT_TRUE(one.ok());
  ASSERT_TRUE(many.ok());
  EXPECT_EQ(one.value(), pattern(8192, 5));
  EXPECT_EQ(many.value(), std::vector<Bytes>{pattern(8192, 5)});

  // A three-region batch written on node 2 reads back on node 1, in the
  // caller's order.
  std::vector<RangeWrite> writes;
  for (int i = 2; i >= 0; --i) {
    writes.push_back({ranges[static_cast<std::size_t>(i)],
                      pattern(8192, static_cast<std::uint8_t>(10 * i))});
  }
  ASSERT_TRUE(c2.put_many(writes).ok());
  auto got = c1.get_many({ranges[2], ranges[0], ranges[1]});
  ASSERT_TRUE(got.ok()) << to_string(got.error());
  EXPECT_EQ(got.value()[0], pattern(8192, 20));
  EXPECT_EQ(got.value()[1], pattern(8192, 0));
  EXPECT_EQ(got.value()[2], pattern(8192, 10));
}

TEST(TcpIntegration, KfsWholeFileReadNeverMixesTwoWrites) {
  // A writer on node 1 overwrites a 4-block file while readers on node 0
  // (home of every region) and node 2 read it whole. Writes put every
  // block in one batch under the inode lock and reads fetch every block in
  // one batch, so each read returns the blocks of one write. The home
  // reader needs the home to honour its own holds; the node-2 reader
  // needs read data that an invalidate overtook to be dropped.
  TcpWorld world({.nodes = 3, .base_port = 30450});
  constexpr std::size_t kBlocks = 4;
  constexpr int kWrites = 300;
  // Block b of version v: the version in the first word, then a body
  // derived from (b, v).
  auto version_image = [](std::uint64_t v) {
    Bytes img(kBlocks * kfs::kBlockSize);
    for (std::size_t b = 0; b < kBlocks; ++b) {
      std::uint8_t* block = img.data() + b * kfs::kBlockSize;
      std::memcpy(block, &v, sizeof v);
      for (std::size_t i = sizeof v; i < kfs::kBlockSize; ++i) {
        block[i] = static_cast<std::uint8_t>(v * 31 + b * 7 + i);
      }
    }
    return img;
  };

  GlobalAddress super;
  {
    TcpClient c0(world, 0);
    auto sb = kfs::FileSystem::mkfs(c0);
    ASSERT_TRUE(sb.ok()) << to_string(sb.error());
    super = sb.value();
    auto fs = kfs::FileSystem::mount(c0, super);
    ASSERT_TRUE(fs.ok());
    auto fh = fs.value().create("/f");
    ASSERT_TRUE(fh.ok());
    ASSERT_TRUE(fs.value().write(fh.value(), 0, version_image(0)).ok());
  }

  std::atomic<bool> done{false};
  std::atomic<int> failed{0};
  std::thread writer([&] {
    TcpClient c(world, 1);
    auto fs = kfs::FileSystem::mount(c, super);
    auto fh = fs ? fs.value().open("/f") : Result<kfs::FileHandle>{fs.error()};
    if (!fh) {
      failed.fetch_add(1);
      done = true;
      return;
    }
    for (std::uint64_t v = 1; v <= kWrites; ++v) {
      if (!fs.value().write(fh.value(), 0, version_image(v)).ok()) {
        failed.fetch_add(1);
      }
    }
    done = true;
  });

  std::atomic<int> reads{0};
  std::atomic<int> mixed{0};
  auto reader = [&](NodeId node) {
    TcpClient c(world, node);
    auto fs = kfs::FileSystem::mount(c, super);
    auto fh = fs ? fs.value().open("/f") : Result<kfs::FileHandle>{fs.error()};
    if (!fh) {
      failed.fetch_add(1);
      return;
    }
    for (int n = 0; !done.load() || n == 0; ++n) {
      auto r = fs.value().read(fh.value(), 0, kBlocks * kfs::kBlockSize);
      if (!r.ok()) {
        failed.fetch_add(1);
        return;
      }
      reads.fetch_add(1);
      std::uint64_t v = 0;
      std::memcpy(&v, r.value().data(), sizeof v);
      if (v > kWrites || r.value() != version_image(v)) mixed.fetch_add(1);
    }
  };
  std::thread reader2(reader, NodeId{2});
  reader(NodeId{0});
  reader2.join();
  writer.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GT(reads.load(), 0);
  EXPECT_EQ(mixed.load(), 0) << "a read returned blocks of two writes";
}

TEST(TcpIntegration, KfsConcurrentCreatesInOneDirectoryAllSurvive) {
  // Nodes 1 and 2 create 40 files each in one directory at once. Every
  // create reads and rewrites the directory under its inode's write lock,
  // so none overwrites an entry another create added.
  TcpWorld world({.nodes = 3, .base_port = 30460});
  constexpr int kPerNode = 40;
  GlobalAddress super;
  {
    TcpClient c0(world, 0);
    auto sb = kfs::FileSystem::mkfs(c0);
    ASSERT_TRUE(sb.ok()) << to_string(sb.error());
    super = sb.value();
    auto fs = kfs::FileSystem::mount(c0, super);
    ASSERT_TRUE(fs.ok());
    ASSERT_TRUE(fs.value().mkdir("/d").ok());
  }
  std::atomic<int> failed{0};
  auto creator = [&](NodeId node) {
    TcpClient c(world, node);
    auto fs = kfs::FileSystem::mount(c, super);
    if (!fs) {
      failed.fetch_add(kPerNode);
      return;
    }
    for (int i = 0; i < kPerNode; ++i) {
      const std::string path =
          "/d/n" + std::to_string(node) + "_" + std::to_string(i);
      if (!fs.value().create(path).ok()) failed.fetch_add(1);
    }
  };
  std::thread other(creator, NodeId{2});
  creator(NodeId{1});
  other.join();
  EXPECT_EQ(failed.load(), 0);

  TcpClient c0(world, 0);
  auto fs = kfs::FileSystem::mount(c0, super);
  ASSERT_TRUE(fs.ok());
  auto entries = fs.value().readdir("/d");
  ASSERT_TRUE(entries.ok());
  std::set<std::string> names;
  for (const auto& e : entries.value()) names.insert(e.name);
  EXPECT_EQ(names.size(), 2u * kPerNode);
  EXPECT_EQ(entries.value().size(), 2u * kPerNode);
  auto report = fs.value().fsck();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().clean());
  EXPECT_EQ(report.value().files, 2u * kPerNode);
}

TEST(TcpIntegration, KfsTruncateNeverFailsAConcurrentWriteOrRead) {
  // A writer on node 1 rewrites an 8-block file while node 2 keeps
  // truncating it to one block and node 0 keeps reading it. truncate
  // frees blocks under the inode's write lock, so a write never lands in
  // a freed block, and a read that finds its blocks freed retries, last
  // under the inode's read lock.
  TcpWorld world({.nodes = 3, .base_port = 30470});
  constexpr std::size_t kFull = 8 * kfs::kBlockSize;
  constexpr int kWrites = 200;
  GlobalAddress super;
  kfs::FileHandle fh;
  {
    TcpClient c0(world, 0);
    auto sb = kfs::FileSystem::mkfs(c0);
    ASSERT_TRUE(sb.ok()) << to_string(sb.error());
    super = sb.value();
    auto fs = kfs::FileSystem::mount(c0, super);
    ASSERT_TRUE(fs.ok());
    auto f = fs.value().create("/f");
    ASSERT_TRUE(f.ok());
    fh = f.value();
    ASSERT_TRUE(fs.value().write(fh, 0, pattern(kFull, 0)).ok());
  }
  std::atomic<bool> done{false};
  std::atomic<int> failed{0};
  std::atomic<int> ops{0};
  std::thread writer([&] {
    TcpClient c(world, 1);
    auto fs = kfs::FileSystem::mount(c, super);
    for (int v = 1; v <= kWrites && fs; ++v) {
      const Status s =
          fs.value().write(fh, 0, pattern(kFull, static_cast<std::uint8_t>(v)));
      if (!s.ok()) failed.fetch_add(1);
    }
    if (!fs) failed.fetch_add(1);
    done = true;
  });
  std::thread truncater([&] {
    TcpClient c(world, 2);
    auto fs = kfs::FileSystem::mount(c, super);
    while (fs && !done.load()) {
      if (!fs.value().truncate(fh, kfs::kBlockSize).ok()) failed.fetch_add(1);
      ops.fetch_add(1);
    }
    if (!fs) failed.fetch_add(1);
  });
  {
    TcpClient c(world, 0);
    auto fs = kfs::FileSystem::mount(c, super);
    if (!fs) failed.fetch_add(1);
    while (fs && !done.load()) {
      auto r = fs.value().read(fh, 0, kFull);
      if (!r.ok()) {
        failed.fetch_add(1);
      } else if (r.value().size() != kfs::kBlockSize &&
                 r.value().size() != kFull) {
        failed.fetch_add(1);
      }
      ops.fetch_add(1);
    }
  }
  writer.join();
  truncater.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GT(ops.load(), 0);

  TcpClient c1(world, 1);
  auto fs = kfs::FileSystem::mount(c1, super);
  ASSERT_TRUE(fs.ok());
  auto report = fs.value().fsck();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().clean())
      << (report.value().errors.empty() ? "" : report.value().errors[0]);
}

TEST(TcpIntegration, KfsBlocksBelowTheirInodeNeverStallReaders) {
  // get_many takes holds in ascending address order; a writer holds the
  // inode before it takes the blocks. When the blocks sort below the
  // inode, a read that batched the inode with them would hold a block
  // while waiting on the writer's inode lock, and the writer would wait
  // on that block. Reads fetch the inode and its blocks in separate
  // rounds, so both sides keep going.
  TcpWorld world({.nodes = 3, .base_port = 30480});
  GlobalAddress super;
  kfs::FileHandle fh;
  const Bytes image = pattern(4 * kfs::kBlockSize, 9);
  {
    // Node 1 takes its pool chunk first, so its regions sort lowest.
    TcpClient c1(world, 1);
    auto sb = kfs::FileSystem::mkfs(c1);
    ASSERT_TRUE(sb.ok()) << to_string(sb.error());
    super = sb.value();
    TcpClient c2(world, 2);
    auto fs2 = kfs::FileSystem::mount(c2, super);
    ASSERT_TRUE(fs2.ok());
    auto f = fs2.value().create("/f");  // the inode, in node 2's chunk
    ASSERT_TRUE(f.ok());
    fh = f.value();
    auto fs1 = kfs::FileSystem::mount(c1, super);
    ASSERT_TRUE(fs1.ok());
    ASSERT_TRUE(fs1.value().write(fh, 0, image).ok());  // blocks in node 1's
  }
  // Both keep going until each has done kMinOps, which takes well under a
  // second; a stall leaves them at a few ops when the deadline passes.
  constexpr int kMinOps = 1000;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  std::atomic<int> reads{0};
  std::atomic<int> writes{0};
  std::atomic<int> failed{0};
  const auto running = [&] {
    return (reads.load() < kMinOps || writes.load() < kMinOps) &&
           std::chrono::steady_clock::now() < deadline;
  };
  std::thread writer([&] {
    TcpClient c(world, 1);
    auto fs = kfs::FileSystem::mount(c, super);
    while (fs && running()) {
      if (!fs.value().write(fh, 0, image).ok()) failed.fetch_add(1);
      writes.fetch_add(1);
    }
    if (!fs) failed.fetch_add(1);
  });
  {
    TcpClient c(world, 0);
    auto fs = kfs::FileSystem::mount(c, super);
    while (fs && running()) {
      auto r = fs.value().read(fh, 0, image.size());
      if (!r.ok() || r.value() != image) failed.fetch_add(1);
      reads.fetch_add(1);
    }
    if (!fs) failed.fetch_add(1);
  }
  writer.join();
  EXPECT_EQ(failed.load(), 0);
  EXPECT_GE(reads.load(), kMinOps);
  EXPECT_GE(writes.load(), kMinOps);
}

// ---------------------------------------------------------------------------
// The metadata plane and every node timer beside client threads
// ---------------------------------------------------------------------------

TEST(TcpIntegration, MetadataPlaneAndTimersStayOnTheExecutor) {
  // Node state takes no locks: only the node's executor touches it. Here
  // every node timer runs (pings, group commit, checkpoints, the stats
  // sampler, slow-op dossiers) over a disk root, while two client threads
  // drive the metadata plane and the main thread scrapes and exports
  // traces. Under the thread sanitizer, any access from another thread
  // shows as a race.
  namespace fs = std::filesystem;
  const fs::path root = fs::temp_directory_path() /
                        ("khz_tcp_timers_" + std::to_string(::getpid()));
  fs::remove_all(root);
  struct RemoveOnExit {
    fs::path dir;
    ~RemoveOnExit() { fs::remove_all(dir); }
  } cleanup{root};
  TcpWorld world({.nodes = 3,
                  .base_port = 30490,
                  .disk_root = root,
                  .ping_interval = 20'000,
                  .group_commit_us = 1'000,
                  .checkpoint_interval = 5'000,
                  .slow_op_threshold_us = 1,
                  .stats_sample_interval = 5'000});

  // create_region -> put -> get -> getattr -> locate -> deallocate ->
  // unreserve, 40 times from each of nodes 1 and 2.
  std::atomic<int> failed{0};
  auto worker = [&](NodeId node) {
    TcpClient c(world, node);
    for (int i = 0; i < 40; ++i) {
      auto base = c.create_region(8192);
      if (!base.ok()) {
        failed.fetch_add(1);
        continue;
      }
      const AddressRange r{base.value(), 8192};
      const Bytes data = pattern(8192, static_cast<std::uint8_t>(node + i));
      const bool put_ok = c.put(r, data).ok();
      auto got = c.get(r);
      const bool ok = put_ok && got.ok() && got.value() == data &&
                      c.getattr(base.value()).ok() &&
                      c.locate(base.value()).ok() && c.deallocate(r).ok() &&
                      c.unreserve(base.value()).ok();
      if (!ok) failed.fetch_add(1);
    }
  };
  std::thread t1(worker, 1);
  std::thread t2(worker, 2);
  for (int i = 0; i < 20; ++i) {
    auto rs = world.scrape(0, static_cast<NodeId>(i % 3),
                           Node::kScrapeSeries | Node::kScrapeDossiers);
    EXPECT_TRUE(rs.ok()) << i;
  }
  EXPECT_FALSE(world.trace_json().empty());
  EXPECT_FALSE(world.cluster_metrics_json().empty());
  t1.join();
  t2.join();
  EXPECT_EQ(failed.load(), 0);
  // A few more ticks of the 5 ms timers, in case the load outran them.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  for (NodeId n : {1u, 2u}) {
    const auto snap = world.node(n).metrics().snapshot();
    const auto it = snap.histograms.find("storage.group_commit_pages");
    ASSERT_NE(it, snap.histograms.end()) << n;
    EXPECT_GT(it->second.count, 0u) << n;
  }
  for (NodeId n = 0; n < 3; ++n) {
    EXPECT_GE(world.node(n).metrics().counter("telemetry.samples").value(),
              1u)
        << n;
  }
  EXPECT_TRUE(fs::exists(root / "node1" / "node_state.meta"));
  auto dossiers = world.scrape(0, 1, Node::kScrapeDossiers);
  ASSERT_TRUE(dossiers.ok());
  EXPECT_FALSE(dossiers.value().dossiers.empty());
}

}  // namespace
}  // namespace khz::core
