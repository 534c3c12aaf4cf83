// Soak tests: larger worlds, mixed protocols and workloads, background
// churn — the "whole system under sustained load" check, plus tests for
// the replicate_to client-guidance hook and transport resource leaks
// under reconnect churn.
#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <thread>

#include "core/client.h"
#include "kfs/fs.h"
#include "net/tcp_transport.h"

namespace khz::core {
namespace {

using consistency::LockMode;
using consistency::ProtocolId;

Bytes fill(std::size_t n, std::uint8_t v) { return Bytes(n, v); }

TEST(ReplicateTo, GuidedPlacementMakesRemoteReadsLocal) {
  SimWorld world({.nodes = 4});
  auto base = world.create_region(0, 8192);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), 8192}, fill(8192, 0x2A)).ok());

  // Guide Khazana: node 3 is about to start reading this region heavily.
  ASSERT_TRUE(world.replicate_to(1, base.value(), 3).ok());
  world.pump_for(500'000);

  // Node 3's first read is already local: zero messages.
  const auto before = world.net().stats().messages_sent;
  auto r = world.get(3, {base.value(), 8192});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0], 0x2A);
  EXPECT_EQ(world.net().stats().messages_sent, before);
}

TEST(ReplicateTo, GuidedCopyIsInvalidatedByLaterWrites) {
  SimWorld world({.nodes = 3});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), 4096}, fill(4096, 1)).ok());
  ASSERT_TRUE(world.replicate_to(0, base.value(), 2).ok());
  world.pump_for(500'000);

  // A write must invalidate the pushed copy like any other replica.
  ASSERT_TRUE(world.put(1, {base.value(), 4096}, fill(4096, 2)).ok());
  auto r = world.get(2, {base.value(), 4096});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value()[0], 2);
}

TEST(ReplicateTo, UnknownRegionFails) {
  SimWorld world({.nodes = 2});
  EXPECT_FALSE(world.replicate_to(1, GlobalAddress{9, 9}, 0).ok());
}

TEST(SoakTest, SixteenNodesMixedProtocolsAndWorkloads) {
  SimWorld world({.nodes = 16, .managers = 2});
  Rng rng(2026);

  struct Workload {
    AddressRange range;
    ProtocolId protocol;
    std::uint8_t last_written = 0;
  };
  std::vector<Workload> workloads;

  // One region per protocol class, several of each, spread over homes.
  const ProtocolId kinds[] = {ProtocolId::kCrew, ProtocolId::kRelease,
                              ProtocolId::kEventual};
  for (int i = 0; i < 12; ++i) {
    RegionAttrs attrs;
    attrs.protocol = kinds[i % 3];
    attrs.level = attrs.protocol == ProtocolId::kCrew
                      ? ConsistencyLevel::kStrict
                  : attrs.protocol == ProtocolId::kRelease
                      ? ConsistencyLevel::kRelaxed
                      : ConsistencyLevel::kEventual;
    attrs.min_replicas = 1 + i % 3;
    const auto home = static_cast<NodeId>(i % 16);
    auto base = world.create_region(home, 2 * 4096, attrs);
    ASSERT_TRUE(base.ok()) << i;
    workloads.push_back({{base.value(), 2 * 4096}, attrs.protocol, 0});
  }

  // Sustained mixed traffic from random nodes.
  for (int step = 0; step < 400; ++step) {
    auto& w = workloads[rng.below(workloads.size())];
    const auto node = static_cast<NodeId>(rng.below(16));
    if (rng.chance(0.4)) {
      const auto value = static_cast<std::uint8_t>(1 + rng.below(250));
      ASSERT_TRUE(world.put(node, w.range, fill(w.range.size, value)).ok())
          << "step " << step;
      w.last_written = value;
    } else {
      auto r = world.get(node, w.range);
      ASSERT_TRUE(r.ok()) << "step " << step;
      if (w.protocol == ProtocolId::kCrew && w.last_written != 0) {
        // Strict regions must always read the latest write.
        EXPECT_EQ(r.value()[0], w.last_written) << "step " << step;
      }
    }
    if (step % 50 == 0) world.pump_for(200'000);
  }

  // Once traffic stops: strict and release regions settle on the last
  // write; eventual regions settle on ONE value everywhere (last-writer-
  // wins by version stamp — a write through a stale replica can
  // legitimately lose, so chronological order is not the invariant).
  world.pump_for(5'000'000);
  for (auto& w : workloads) {
    if (w.last_written == 0) continue;
    if (w.protocol == ProtocolId::kEventual) {
      std::set<std::uint8_t> values;
      for (NodeId n : {0u, 5u, 10u, 15u}) {
        auto r = world.get(n, w.range);
        ASSERT_TRUE(r.ok());
        values.insert(r.value()[0]);
      }
      EXPECT_EQ(values.size(), 1u) << "eventual region diverged";
    } else {
      auto r = world.get(15, w.range);
      ASSERT_TRUE(r.ok());
      EXPECT_EQ(r.value()[0], w.last_written)
          << "protocol " << static_cast<int>(w.protocol);
    }
  }
}

TEST(SoakTest, KfsUnderConcurrentMultiNodeUse) {
  SimWorld world({.nodes = 6});
  std::vector<SimClient> clients;
  for (NodeId n = 0; n < 6; ++n) clients.emplace_back(world, n);
  auto super = kfs::FileSystem::mkfs(clients[0]);
  ASSERT_TRUE(super.ok());
  std::vector<kfs::FileSystem> mounts;
  for (NodeId n = 0; n < 6; ++n) {
    auto fs = kfs::FileSystem::mount(clients[n], super.value());
    ASSERT_TRUE(fs.ok());
    mounts.push_back(std::move(fs.value()));
  }

  // Each node owns a directory and creates/writes files; everyone then
  // verifies everyone else's files.
  for (NodeId n = 0; n < 6; ++n) {
    const std::string dir = "/node" + std::to_string(n);
    ASSERT_TRUE(mounts[n].mkdir(dir).ok());
    for (int f = 0; f < 4; ++f) {
      const std::string path = dir + "/f" + std::to_string(f);
      auto fh = mounts[n].create(path);
      ASSERT_TRUE(fh.ok()) << path;
      ASSERT_TRUE(mounts[n]
                      .write(fh.value(), 0,
                             fill(2000, static_cast<std::uint8_t>(n * 4 + f)))
                      .ok());
    }
  }
  for (NodeId reader = 0; reader < 6; ++reader) {
    for (NodeId owner = 0; owner < 6; ++owner) {
      for (int f = 0; f < 4; ++f) {
        const std::string path =
            "/node" + std::to_string(owner) + "/f" + std::to_string(f);
        auto fh = mounts[reader].open(path);
        ASSERT_TRUE(fh.ok()) << path;
        auto r = mounts[reader].read(fh.value(), 0, 2000);
        ASSERT_TRUE(r.ok()) << path;
        EXPECT_EQ(r.value()[0], static_cast<std::uint8_t>(owner * 4 + f));
      }
    }
  }
  // Root directory lists all six subdirectories from every node.
  for (NodeId n = 0; n < 6; ++n) {
    auto entries = mounts[n].readdir("/");
    ASSERT_TRUE(entries.ok());
    EXPECT_EQ(entries.value().size(), 6u);
  }
}

// The pre-epoll transport spawned one reader thread per accepted
// connection and never reaped them, so peer restart churn grew a thread
// (and stack) per cycle forever. The epoll transport owns exactly two
// threads per endpoint regardless of churn; assert that, plus that the
// timer heap doesn't accumulate cancelled tombstones under a ping-loop
// style schedule/cancel pattern.
TEST(SoakTest, TcpReconnectChurnLeaksNoThreadsOrTimers) {
  const auto thread_count = [] {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
    }
    return -1;
  };
  // pthread_join returns once the kernel clears the joined thread's tid,
  // but /proc/self/status counts the thread until the kernel releases it,
  // a moment later. So a count read after a join polls, for at most 1 s,
  // until it shows the value expected.
  const auto settled_thread_count = [&](int expected) {
    int n = thread_count();
    for (int i = 0; i < 1000 && n != expected; ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      n = thread_count();
    }
    return n;
  };

  net::TcpBus bus(30410);
  auto& a = bus.add_node(0);
  a.set_handler([](net::Message) {});
  std::atomic<int> got{0};
  const int without_peer = thread_count();

  int baseline = -1;
  for (int cycle = 0; cycle < 8; ++cycle) {
    auto& b = bus.add_node(1);
    b.set_handler([&](net::Message) { got.fetch_add(1); });
    // Drive traffic until at least one message of this cycle lands
    // (resending is fine: the transport is best-effort and sends during
    // reconnection races may be lost).
    const int want = got.load() + 1;
    for (int i = 0; i < 2000 && got.load() < want; ++i) {
      net::Message m;
      m.type = net::MsgType::kPing;
      m.dst = 1;
      a.send(std::move(m));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_GE(got.load(), want) << "cycle " << cycle;
    bus.remove_node(1);  // joins the peer's threads deterministically
    // The first cycle's peer threads gone, the count should be back to
    // what it was before the peer existed (or settle where it stays).
    if (cycle == 0) baseline = settled_thread_count(without_peer);
  }
  EXPECT_EQ(settled_thread_count(baseline), baseline)
      << "reconnect churn grew threads";

  // A long-running ping loop schedules and cancels constantly; the timer
  // heap must not accumulate the cancelled entries.
  for (int i = 0; i < 5000; ++i) {
    a.cancel(a.schedule(60'000'000, [] {}));
  }
  EXPECT_LT(a.pending_timers(), 10u);
}

TEST(SoakTest, RepeatedCrashRecoverCyclesWithPersistence) {
  const auto tmp = std::filesystem::temp_directory_path() / "khz_soak_crash";
  std::filesystem::remove_all(tmp);
  {
    SimWorld world({.nodes = 4, .disk_root = tmp});
    auto base = world.create_region(0, 4096);
    ASSERT_TRUE(base.ok());
    for (int cycle = 0; cycle < 5; ++cycle) {
      const auto value = static_cast<std::uint8_t>(cycle + 1);
      ASSERT_TRUE(world.put(0, {base.value(), 4096},
                            fill(4096, value)).ok())
          << cycle;
      world.restart_node(0);
      auto r = world.get(1, {base.value(), 4096});
      ASSERT_TRUE(r.ok()) << cycle;
      EXPECT_EQ(r.value()[0], value) << cycle;
      // Fresh lock traffic still works after each recovery.
      ASSERT_TRUE(world.get(3, {base.value(), 4096}).ok()) << cycle;
    }
  }
  std::filesystem::remove_all(tmp);
}

}  // namespace
}  // namespace khz::core
