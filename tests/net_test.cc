// Unit tests for src/net: message codec, the discrete-event simulator
// (latency, FIFO, drops, partitions, crashes, timers), and the real TCP
// transport.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>

#include "net/sim_network.h"
#include "net/tcp_transport.h"

namespace khz::net {
namespace {

Message make(MsgType type, NodeId dst, Bytes payload = {}, RpcId rpc = 0) {
  Message m;
  m.type = type;
  m.dst = dst;
  m.rpc_id = rpc;
  m.payload = std::move(payload);
  return m;
}

// ---------------------------------------------------------------------------
// Message codec
// ---------------------------------------------------------------------------

TEST(MessageCodec, RoundTrip) {
  Message m;
  m.type = MsgType::kPageFetchReq;
  m.src = 3;
  m.dst = 9;
  m.rpc_id = 0x1234567890ull;
  m.payload = {1, 2, 3, 4, 5};
  Message out;
  ASSERT_TRUE(Message::decode(m.encode(), out));
  EXPECT_EQ(out.type, m.type);
  EXPECT_EQ(out.src, m.src);
  EXPECT_EQ(out.dst, m.dst);
  EXPECT_EQ(out.rpc_id, m.rpc_id);
  EXPECT_EQ(out.payload, m.payload);
}

TEST(MessageCodec, RejectsTruncatedFrame) {
  Message m = make(MsgType::kPing, 1, Bytes(10, 7));
  Bytes wire = m.encode();
  wire.resize(wire.size() - 3);
  Message out;
  EXPECT_FALSE(Message::decode(wire, out));
}

TEST(MessageCodec, RejectsTrailingGarbage) {
  Message m = make(MsgType::kPing, 1);
  Bytes wire = m.encode();
  wire.push_back(0xFF);
  Message out;
  EXPECT_FALSE(Message::decode(wire, out));
}

class MessageTypeNames : public ::testing::TestWithParam<MsgType> {};

TEST_P(MessageTypeNames, HasName) {
  EXPECT_NE(to_string(GetParam()), "?");
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, MessageTypeNames,
    ::testing::Values(MsgType::kJoinReq, MsgType::kJoinResp,
                      MsgType::kNodeListGossip, MsgType::kReserveReq,
                      MsgType::kReserveResp, MsgType::kUnreserveReq,
                      MsgType::kUnreserveResp, MsgType::kSpaceReq,
                      MsgType::kSpaceResp, MsgType::kDescLookupReq,
                      MsgType::kDescLookupResp, MsgType::kHintQueryReq,
                      MsgType::kHintQueryResp, MsgType::kHintPublish,
                      MsgType::kClusterWalkReq, MsgType::kClusterWalkResp,
                      MsgType::kAllocReq, MsgType::kAllocResp,
                      MsgType::kFreeReq, MsgType::kFreeResp,
                      MsgType::kGetAttrReq, MsgType::kGetAttrResp,
                      MsgType::kSetAttrReq, MsgType::kSetAttrResp,
                      MsgType::kPageFetchReq, MsgType::kPageFetchResp,
                      MsgType::kReplicaPush, MsgType::kReplicaDrop,
                      MsgType::kCm, MsgType::kMapMutateReq,
                      MsgType::kMapMutateResp, MsgType::kLocateReq,
                      MsgType::kLocateResp, MsgType::kPing, MsgType::kPong,
                      MsgType::kObjInvokeReq, MsgType::kObjInvokeResp));

// ---------------------------------------------------------------------------
// SimNetwork
// ---------------------------------------------------------------------------

class SimNetTest : public ::testing::Test {
 protected:
  SimNetTest() : net_(42) {
    for (NodeId i = 0; i < 3; ++i) {
      auto& t = net_.add_node(i);
      t.set_handler([this, i](Message m) { received_[i].push_back(m); });
      transports_.push_back(&t);
    }
  }

  SimNetwork net_;
  std::vector<SimTransport*> transports_;
  std::map<NodeId, std::vector<Message>> received_;
};

TEST_F(SimNetTest, DeliversWithLatency) {
  net_.set_default_link({.latency = 500, .jitter = 0});
  transports_[0]->send(make(MsgType::kPing, 1));
  EXPECT_TRUE(received_[1].empty());
  net_.run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(net_.now(), 500);
  EXPECT_EQ(received_[1][0].src, 0u);
}

TEST_F(SimNetTest, PerLinkOverrideBeatsDefault) {
  net_.set_default_link({.latency = 100, .jitter = 0});
  net_.set_link(0, 2, {.latency = 10'000, .jitter = 0});
  transports_[0]->send(make(MsgType::kPing, 1));
  transports_[0]->send(make(MsgType::kPing, 2));
  net_.run();
  EXPECT_EQ(net_.now(), 10'000);  // last delivery on the slow link
}

TEST_F(SimNetTest, FifoPerDirectedPairEvenWithJitter) {
  net_.set_default_link({.latency = 100, .jitter = 90});
  for (std::uint8_t i = 0; i < 50; ++i) {
    transports_[0]->send(make(MsgType::kPing, 1, Bytes{i}));
  }
  net_.run();
  ASSERT_EQ(received_[1].size(), 50u);
  for (std::uint8_t i = 0; i < 50; ++i) {
    EXPECT_EQ(received_[1][i].payload[0], i);
  }
}

TEST_F(SimNetTest, BandwidthAddsSizeProportionalDelay) {
  net_.set_default_link(
      {.latency = 0, .jitter = 0, .bytes_per_micro = 1.0});
  transports_[0]->send(make(MsgType::kPing, 1, Bytes(1000, 0)));
  net_.run();
  EXPECT_GE(net_.now(), 1000);
}

TEST_F(SimNetTest, DropsToCrashedNode) {
  net_.set_node_up(1, false);
  transports_[0]->send(make(MsgType::kPing, 1));
  net_.run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(net_.stats().messages_dropped, 1u);
}

TEST_F(SimNetTest, InFlightMessageToNodeThatCrashesIsLost) {
  net_.set_default_link({.latency = 1000, .jitter = 0});
  transports_[0]->send(make(MsgType::kPing, 1));
  // Crash after the send but before delivery.
  net_.set_node_up(1, false);
  net_.run();
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(SimNetTest, RestartedNodeReceivesAgain) {
  net_.set_node_up(1, false);
  transports_[0]->send(make(MsgType::kPing, 1));
  net_.run();
  net_.set_node_up(1, true);
  transports_[0]->send(make(MsgType::kPing, 1));
  net_.run();
  EXPECT_EQ(received_[1].size(), 1u);
}

TEST_F(SimNetTest, PartitionBlocksCrossTraffic) {
  net_.partition({0}, {1, 2});
  transports_[0]->send(make(MsgType::kPing, 1));
  transports_[1]->send(make(MsgType::kPing, 2));
  net_.run();
  EXPECT_TRUE(received_[1].empty());   // crossed the partition
  EXPECT_EQ(received_[2].size(), 1u);  // same side
  net_.clear_partitions();
  transports_[0]->send(make(MsgType::kPing, 1));
  net_.run();
  EXPECT_EQ(received_[1].size(), 1u);
}

TEST_F(SimNetTest, DropProbabilityLosesRoughlyThatFraction) {
  net_.set_default_link({.latency = 10, .jitter = 0, .drop_probability = 0.5});
  for (int i = 0; i < 1000; ++i) {
    transports_[0]->send(make(MsgType::kPing, 1));
  }
  net_.run();
  EXPECT_GT(received_[1].size(), 350u);
  EXPECT_LT(received_[1].size(), 650u);
}

TEST_F(SimNetTest, TimersFireInOrderAndAdvanceClock) {
  std::vector<int> order;
  transports_[0]->schedule(300, [&] { order.push_back(3); });
  transports_[0]->schedule(100, [&] { order.push_back(1); });
  transports_[0]->schedule(200, [&] { order.push_back(2); });
  net_.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(net_.now(), 300);
}

TEST_F(SimNetTest, CancelledTimerDoesNotFire) {
  bool fired = false;
  const auto id = transports_[0]->schedule(100, [&] { fired = true; });
  transports_[0]->cancel(id);
  net_.run();
  EXPECT_FALSE(fired);
}

TEST_F(SimNetTest, CrashedNodesTimersAreSuppressed) {
  bool fired = false;
  transports_[1]->schedule(100, [&] { fired = true; });
  net_.set_node_up(1, false);
  net_.run();
  EXPECT_FALSE(fired);
}

TEST_F(SimNetTest, RunForStopsAtDeadline) {
  int count = 0;
  transports_[0]->schedule(100, [&] { ++count; });
  transports_[0]->schedule(10'000, [&] { ++count; });
  net_.run_for(1000);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(net_.now(), 1000);
}

TEST_F(SimNetTest, RunUntilStopsEarly) {
  int count = 0;
  for (int i = 0; i < 10; ++i) {
    transports_[0]->schedule(100 * (i + 1), [&] { ++count; });
  }
  EXPECT_TRUE(net_.run_until([&] { return count >= 3; }));
  EXPECT_EQ(count, 3);
}

TEST_F(SimNetTest, StatsCountTypesAndBytes) {
  transports_[0]->send(make(MsgType::kPing, 1));
  transports_[0]->send(make(MsgType::kPong, 1));
  transports_[0]->send(make(MsgType::kPing, 2, Bytes(100, 0)));
  net_.run();
  const auto& s = net_.stats();
  EXPECT_EQ(s.messages_sent, 3u);
  EXPECT_EQ(s.messages_delivered, 3u);
  EXPECT_EQ(s.per_type.at(MsgType::kPing), 2u);
  EXPECT_EQ(s.per_type.at(MsgType::kPong), 1u);
  EXPECT_GT(s.bytes_sent, 100u);
}

TEST_F(SimNetTest, SameSeedSameSchedule) {
  // Two separately seeded networks with jitter produce identical
  // delivery times: the basis of reproducible benchmarks.
  auto run_once = [](std::uint64_t seed) {
    SimNetwork net(seed);
    std::vector<Micros> times;
    auto& a = net.add_node(0);
    auto& b = net.add_node(1);
    b.set_handler([&](Message) { times.push_back(net.now()); });
    a.set_handler([](Message) {});
    net.set_default_link({.latency = 100, .jitter = 50});
    for (int i = 0; i < 20; ++i) {
      Message m;
      m.type = MsgType::kPing;
      m.dst = 1;
      a.send(std::move(m));
    }
    net.run();
    return times;
  };
  EXPECT_EQ(run_once(5), run_once(5));
  EXPECT_NE(run_once(5), run_once(6));
}

// ---------------------------------------------------------------------------
// TcpTransport (real sockets on localhost)
// ---------------------------------------------------------------------------

TEST(TcpTransportTest, SendReceiveRoundTrip) {
  TcpBus bus(30000);
  auto& a = bus.add_node(0);
  auto& b = bus.add_node(1);

  std::atomic<int> got{0};
  Message seen;
  std::mutex mu;
  b.set_handler([&](Message m) {
    std::lock_guard lk(mu);
    seen = std::move(m);
    got.fetch_add(1);
  });
  a.set_handler([](Message) {});

  Message m = make(MsgType::kPing, 1, Bytes{9, 8, 7}, 55);
  a.send(std::move(m));
  for (int i = 0; i < 200 && got.load() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(got.load(), 1);
  std::lock_guard lk(mu);
  EXPECT_EQ(seen.type, MsgType::kPing);
  EXPECT_EQ(seen.src, 0u);
  EXPECT_EQ(seen.rpc_id, 55u);
  EXPECT_EQ(seen.payload, (Bytes{9, 8, 7}));
}

TEST(TcpTransportTest, ManyMessagesArriveInOrder) {
  TcpBus bus(30010);
  auto& a = bus.add_node(0);
  auto& b = bus.add_node(1);
  std::atomic<int> count{0};
  std::vector<std::uint8_t> order;
  std::mutex mu;
  b.set_handler([&](Message m) {
    std::lock_guard lk(mu);
    order.push_back(m.payload[0]);
    count.fetch_add(1);
  });
  a.set_handler([](Message) {});
  for (std::uint8_t i = 0; i < 100; ++i) {
    a.send(make(MsgType::kPing, 1, Bytes{i}));
  }
  for (int i = 0; i < 400 && count.load() < 100; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(count.load(), 100);
  std::lock_guard lk(mu);
  for (std::uint8_t i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
}

TEST(TcpTransportTest, TimersFireOnExecutor) {
  TcpBus bus(30020);
  auto& a = bus.add_node(0);
  a.set_handler([](Message) {});
  std::atomic<bool> fired{false};
  a.schedule(10'000, [&] { fired.store(true); });
  for (int i = 0; i < 200 && !fired.load(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_TRUE(fired.load());
}

TEST(TcpTransportTest, CancelledTimerIsSilent) {
  TcpBus bus(30030);
  auto& a = bus.add_node(0);
  a.set_handler([](Message) {});
  std::atomic<bool> fired{false};
  const auto id = a.schedule(50'000, [&] { fired.store(true); });
  a.cancel(id);
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_FALSE(fired.load());
}

TEST(TcpTransportTest, SendToDeadPeerIsBestEffort) {
  TcpBus bus(30040);
  auto& a = bus.add_node(0);
  a.set_handler([](Message) {});
  // Node 7 was never started; the send must not crash or block.
  a.send(make(MsgType::kPing, 7));
  SUCCEED();
}

// Regression: schedule() used to return timers_.back().id *after*
// std::push_heap had reordered the heap, so scheduling a sooner timer after
// a later one returned the LATER timer's id — and cancel() then silenced
// the wrong timer.
TEST(TcpTransportTest, ScheduleReturnsIdOfTheTimerJustScheduled) {
  TcpBus bus(30050);
  auto& a = bus.add_node(0);
  a.set_handler([](Message) {});
  std::atomic<bool> late_fired{false};
  std::atomic<bool> soon_fired{false};
  // The later timer first, then a sooner one: push_heap moves the sooner
  // timer to the heap front, leaving the later timer at back().
  const auto late_id = a.schedule(60'000'000, [&] { late_fired.store(true); });
  const auto soon_id = a.schedule(20'000, [&] { soon_fired.store(true); });
  EXPECT_NE(late_id, soon_id);
  a.cancel(soon_id);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(soon_fired.load());  // the buggy id would cancel late instead
  EXPECT_FALSE(late_fired.load());
  a.cancel(late_id);
}

TEST(TcpTransportTest, CancelPurgesTimerTombstones) {
  TcpBus bus(30060);
  auto& a = bus.add_node(0);
  a.set_handler([](Message) {});
  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 200; ++i) {
    ids.push_back(a.schedule(60'000'000, [] {}));
  }
  EXPECT_EQ(a.pending_timers(), 200u);
  for (const auto id : ids) a.cancel(id);
  // Lazy compaction must have reclaimed the cancelled entries rather than
  // leaving 200 tombstones until their distant fire time.
  EXPECT_EQ(a.pending_timers(), 0u);
}

using SteadyTime = std::chrono::steady_clock;

/// Milliseconds from `t0` to now.
long long ms_since(SteadyTime::time_point t0) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             SteadyTime::now() - t0)
      .count();
}

// Inbound frames and posted jobs share the executor's work queue. A due
// timer must still fire while that queue never drains (here: a job that
// keeps re-posting itself for a second), or RPC timeouts, CREW's
// zero-delay batch flush, self-sends and group commit all stall behind
// sustained traffic.
TEST(TcpTransportTest, DueTimerFiresUnderSustainedPosts) {
  TcpBus bus(30100);
  auto& a = bus.add_node(0);
  a.set_handler([](Message) {});
  const auto t0 = SteadyTime::now();
  std::atomic<bool> reposting{true};
  std::function<void()> spin = [&] {
    if (ms_since(t0) < 1000) {
      a.post(spin);
    } else {
      reposting.store(false);
    }
  };
  std::atomic<long long> fired_ms{-1};
  a.post(spin);
  a.schedule(1'000, [&] { fired_ms.store(ms_since(t0)); });
  for (int i = 0; i < 600 && (reposting.load() || fired_ms.load() < 0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  bus.stop_all();  // no callback may outlive the locals it captures
  EXPECT_GE(fired_ms.load(), 0);
  EXPECT_LT(fired_ms.load(), 100);
}

// The reverse direction: a timer that re-arms itself with zero delay for a
// second must not starve a posted job.
TEST(TcpTransportTest, PostedJobRunsUnderZeroDelayTimerLoop) {
  TcpBus bus(30110);
  auto& a = bus.add_node(0);
  a.set_handler([](Message) {});
  const auto t0 = SteadyTime::now();
  std::atomic<bool> looping{true};
  std::function<void()> tick = [&] {
    if (ms_since(t0) < 1000) {
      a.schedule(0, tick);
    } else {
      looping.store(false);
    }
  };
  std::atomic<long long> ran_ms{-1};
  a.schedule(0, tick);
  a.post([&] { ran_ms.store(ms_since(t0)); });
  for (int i = 0; i < 600 && (looping.load() || ran_ms.load() < 0); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  bus.stop_all();
  EXPECT_GE(ran_ms.load(), 0);
  EXPECT_LT(ran_ms.load(), 100);
}

/// A listening socket that accepts connections into its backlog but never
/// reads: connect() succeeds, then the tiny receive buffer fills and the
/// sender's frames back up — a "live but wedged" peer.
class Blackhole {
 public:
  explicit Blackhole(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    int one = 1;
    ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    int tiny = 4096;
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    ::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
    ::listen(fd_, 8);
  }
  ~Blackhole() { ::close(fd_); }

 private:
  int fd_;
};

TEST(TcpTransportTest, WedgedPeerDoesNotStallSendsToHealthyPeers) {
  TcpBus bus(30070);
  auto& a = bus.add_node(0);
  auto& b = bus.add_node(1);
  Blackhole wedged(bus.port_of(2));

  std::atomic<int> got{0};
  b.set_handler([&](Message) { got.fetch_add(1); });
  a.set_handler([](Message) {});

  // ~10 MB to the wedged peer: far more than its kernel buffers absorb,
  // so most of it must park in the per-peer write queue without blocking.
  for (int i = 0; i < 300; ++i) {
    a.send(make(MsgType::kPing, 2, Bytes(32 * 1024, 0xAB)));
  }
  // Healthy traffic right behind it must still flow promptly.
  for (std::uint8_t i = 0; i < 50; ++i) {
    a.send(make(MsgType::kPing, 1, Bytes{i}));
  }
  for (int i = 0; i < 1000 && got.load() < 50; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(got.load(), 50);
  const auto s = a.stats();
  EXPECT_GT(s.queued_bytes, 0u);  // the wedged peer's backlog is parked
  EXPECT_GT(s.peak_queued_bytes, 1u << 20);
}

TEST(TcpTransportTest, ReconnectsWithBackoffAfterPeerRestart) {
  TcpBus bus(30080);
  auto& a = bus.add_node(0);
  auto& b = bus.add_node(1);
  std::atomic<int> got{0};
  b.set_handler([&](Message) { got.fetch_add(1); });
  a.set_handler([](Message) {});

  a.send(make(MsgType::kPing, 1));
  for (int i = 0; i < 400 && got.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(got.load(), 1);

  // Kill the peer and let the EOF reach a's event loop.
  bus.remove_node(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Sends while the peer is down queue up and drive connect attempts that
  // fail (with backoff) until the peer returns.
  a.send(make(MsgType::kPing, 1));
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  EXPECT_GE(a.stats().connect_failures, 1u);
  EXPECT_EQ(got.load(), 1);

  // Restart the peer: the queued frame must arrive via a fresh connection.
  std::atomic<int> got2{0};
  auto& b2 = bus.add_node(1);
  b2.set_handler([&](Message) { got2.fetch_add(1); });
  for (int i = 0; i < 1000 && got2.load() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(got2.load(), 1);
  const auto s = a.stats();
  EXPECT_GE(s.reconnects, 1u);
  EXPECT_GE(s.connects, 2u);
}

TEST(TcpTransportTest, StatsCountTraffic) {
  TcpBus bus(30090);
  auto& a = bus.add_node(0);
  auto& b = bus.add_node(1);
  std::atomic<int> got{0};
  b.set_handler([&](Message) { got.fetch_add(1); });
  a.set_handler([](Message) {});
  for (int i = 0; i < 10; ++i) {
    a.send(make(MsgType::kPing, 1, Bytes(100, 1)));
  }
  for (int i = 0; i < 400 && got.load() < 10; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(got.load(), 10);
  const auto sa = a.stats();
  const auto sb = b.stats();
  EXPECT_EQ(sa.messages_sent, 10u);
  EXPECT_GT(sa.bytes_sent, 1000u);
  EXPECT_EQ(sa.connects, 1u);
  EXPECT_EQ(sa.frames_dropped, 0u);
  EXPECT_EQ(sb.messages_received, 10u);
  EXPECT_EQ(sb.bytes_received, sa.bytes_sent);
  EXPECT_EQ(sa.queued_bytes, 0u);
}

}  // namespace
}  // namespace khz::net
