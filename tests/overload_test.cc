// Overload-survival tests: admission-controller queueing discipline (fake
// host, manual time), the queue-full Nack backpressure path across the
// simulator, client retry budgets, the bounded reliable-send queue, and a
// 2x-saturation soak asserting nothing grows without bound.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "bench/load_gen.h"
#include "core/admission.h"
#include "core/client.h"
#include "core/rpc_engine.h"

namespace khz::core {
namespace {

using net::Message;
using net::MsgType;

// ---------------------------------------------------------------------------
// Fake hosts: manual clock, ordered timer queue.
// ---------------------------------------------------------------------------

/// Shared manual-time scaffolding for both fake hosts.
class ManualClock {
 public:
  [[nodiscard]] Micros now() const { return now_; }
  std::uint64_t add_timer(Micros delay, std::function<void()> fn) {
    const std::uint64_t id = next_timer_++;
    timers_[{now_ + delay, id}] = std::move(fn);
    return id;
  }
  void remove_timer(std::uint64_t timer_id) {
    for (auto it = timers_.begin(); it != timers_.end(); ++it) {
      if (it->first.second == timer_id) {
        timers_.erase(it);
        return;
      }
    }
  }
  bool fire_next() {
    if (timers_.empty()) return false;
    auto it = timers_.begin();
    now_ = std::max(now_, it->first.first);
    auto fn = std::move(it->second);
    timers_.erase(it);
    fn();
    return true;
  }
  void run_until_idle() {
    while (fire_next()) {
    }
  }
  [[nodiscard]] std::size_t pending_timers() const { return timers_.size(); }
  void set_now(Micros t) { now_ = t; }

 private:
  std::map<std::pair<Micros, std::uint64_t>, std::function<void()>> timers_;
  std::uint64_t next_timer_ = 1;
  Micros now_ = 0;
};

class FakeAdmissionHost final : public AdmissionController::Host {
 public:
  [[nodiscard]] Micros now() const override { return clock.now(); }
  std::uint64_t schedule(Micros delay, std::function<void()> fn) override {
    return clock.add_timer(delay, std::move(fn));
  }
  void cancel(std::uint64_t timer_id) override {
    clock.remove_timer(timer_id);
  }
  void dispatch(const Message& m) override { dispatched.push_back(m); }
  void nack(const Message& m) override { nacked.push_back(m); }

  ManualClock clock;
  std::vector<Message> dispatched;
  std::vector<Message> nacked;
};

Message request(MsgType type, std::uint64_t rpc_id, std::uint64_t deadline) {
  Message m;
  m.type = type;
  m.src = 2;
  m.dst = 0;
  m.rpc_id = rpc_id;
  m.deadline = deadline;
  return m;
}

struct AdmissionFixture {
  explicit AdmissionFixture(AdmissionConfig cfg) : ctl(host, cfg, metrics) {}

  /// offer() that keeps the test call sites terse; asserts consumption.
  void offer_consumed(Message m) {
    ASSERT_TRUE(ctl.offer(m)) << "message unexpectedly bypassed admission";
  }
  [[nodiscard]] std::uint64_t counter(const std::string& name) {
    return metrics.counter(name).value();
  }

  FakeAdmissionHost host;
  obs::MetricsRegistry metrics;
  AdmissionController ctl;
};

// ---------------------------------------------------------------------------
// Admission: queueing discipline
// ---------------------------------------------------------------------------

TEST(Admission, AllLimitsZeroRefusesEveryMessage) {
  AdmissionFixture f({});
  Message m = request(MsgType::kGetAttrReq, 1, 0);
  EXPECT_FALSE(f.ctl.offer(m));  // caller dispatches synchronously
  EXPECT_EQ(f.ctl.total_depth(), 0u);
  EXPECT_EQ(f.host.clock.pending_timers(), 0u);
}

TEST(Admission, ResponsesAndProbesBypass) {
  AdmissionFixture f({.client_queue_limit = 4,
                      .protocol_queue_limit = 4,
                      .replication_queue_limit = 4});
  Message ping = request(MsgType::kPing, 1, 0);
  Message pong = request(MsgType::kPong, 1, 0);
  EXPECT_FALSE(f.ctl.offer(ping));
  EXPECT_FALSE(f.ctl.offer(pong));
  EXPECT_EQ(AdmissionController::classify(MsgType::kGetAttrReq),
            OpClass::kClient);
  EXPECT_EQ(AdmissionController::classify(MsgType::kCm), OpClass::kProtocol);
  EXPECT_EQ(AdmissionController::classify(MsgType::kReplicaPush),
            OpClass::kReplication);
}

TEST(Admission, ClientQueueDispatchesEarliestDeadlineFirst) {
  AdmissionFixture f({.client_queue_limit = 8, .service_us = 10});
  f.offer_consumed(request(MsgType::kGetAttrReq, 1, 300));
  f.offer_consumed(request(MsgType::kGetAttrReq, 2, 100));
  f.offer_consumed(request(MsgType::kGetAttrReq, 3, 0));  // no deadline
  f.offer_consumed(request(MsgType::kGetAttrReq, 4, 200));
  f.host.clock.run_until_idle();

  ASSERT_EQ(f.host.dispatched.size(), 4u);
  EXPECT_EQ(f.host.dispatched[0].rpc_id, 2u);  // deadline 100
  EXPECT_EQ(f.host.dispatched[1].rpc_id, 4u);  // deadline 200
  EXPECT_EQ(f.host.dispatched[2].rpc_id, 1u);  // deadline 300
  EXPECT_EQ(f.host.dispatched[3].rpc_id, 3u);  // no deadline sorts last
}

TEST(Admission, FullClientQueueShedsLatestDeadlineAndNacks) {
  // service_us far in the future: the queue stays full while we probe the
  // eviction policy.
  AdmissionFixture f({.client_queue_limit = 3, .service_us = 1'000'000});
  f.offer_consumed(request(MsgType::kGetAttrReq, 1, 100));
  f.offer_consumed(request(MsgType::kGetAttrReq, 2, 300));
  f.offer_consumed(request(MsgType::kGetAttrReq, 3, 200));

  // Arriving deadline 250 beats queued 300: the queued one is evicted.
  f.offer_consumed(request(MsgType::kGetAttrReq, 4, 250));
  ASSERT_EQ(f.host.nacked.size(), 1u);
  EXPECT_EQ(f.host.nacked[0].rpc_id, 2u);

  // Arriving deadline 400 is worse than everything queued: it is the
  // victim itself.
  f.offer_consumed(request(MsgType::kGetAttrReq, 5, 400));
  ASSERT_EQ(f.host.nacked.size(), 2u);
  EXPECT_EQ(f.host.nacked[1].rpc_id, 5u);

  // A deadline-free arrival loses to any real deadline.
  f.offer_consumed(request(MsgType::kGetAttrReq, 6, 0));
  ASSERT_EQ(f.host.nacked.size(), 3u);
  EXPECT_EQ(f.host.nacked[2].rpc_id, 6u);

  EXPECT_EQ(f.ctl.depth(OpClass::kClient), 3u);
  EXPECT_EQ(f.counter("admission.shed"), 3u);
  EXPECT_EQ(f.counter("admission.shed.client"), 3u);
  EXPECT_EQ(f.counter("admission.nacks_sent"), 3u);
}

TEST(Admission, ShedWithoutRpcIdIsSilent) {
  AdmissionFixture f({.client_queue_limit = 1, .service_us = 1'000'000});
  f.offer_consumed(request(MsgType::kGetAttrReq, 7, 100));
  f.offer_consumed(request(MsgType::kGetAttrReq, 0, 200));  // one-way
  EXPECT_EQ(f.counter("admission.shed"), 1u);
  EXPECT_TRUE(f.host.nacked.empty());  // nothing to correlate a Nack to
}

TEST(Admission, ExpiredClientEntriesAreDroppedAtDispatch) {
  AdmissionFixture f({.client_queue_limit = 8, .service_us = 50});
  f.offer_consumed(request(MsgType::kGetAttrReq, 1, 20));   // expires first
  f.offer_consumed(request(MsgType::kGetAttrReq, 2, 900));  // survives
  f.host.clock.run_until_idle();  // first pump fires at t=50 > 20

  ASSERT_EQ(f.host.dispatched.size(), 1u);
  EXPECT_EQ(f.host.dispatched[0].rpc_id, 2u);
  EXPECT_EQ(f.counter("admission.expired_in_queue"), 1u);
  EXPECT_EQ(f.counter("admission.shed"), 0u);  // expiry is not shedding
}

TEST(Admission, ProtocolKeepsFifoOrderAndTailDropsOverflow) {
  AdmissionFixture f({.protocol_queue_limit = 2, .service_us = 10});
  Message a = request(MsgType::kCm, 0, 0);
  a.payload = Bytes{1};
  Message b = request(MsgType::kCm, 0, 0);
  b.payload = Bytes{2};
  Message c = request(MsgType::kCm, 0, 0);
  c.payload = Bytes{3};
  f.offer_consumed(std::move(a));
  f.offer_consumed(std::move(b));
  f.offer_consumed(std::move(c));  // arriving message is the loss
  f.host.clock.run_until_idle();

  ASSERT_EQ(f.host.dispatched.size(), 2u);
  EXPECT_EQ(f.host.dispatched[0].payload, (Bytes{1}));
  EXPECT_EQ(f.host.dispatched[1].payload, (Bytes{2}));
  EXPECT_EQ(f.counter("admission.shed.protocol"), 1u);
}

TEST(Admission, ReplicationDropsOldestAndProtocolDrainsFirst) {
  AdmissionFixture f({.client_queue_limit = 4,
                      .protocol_queue_limit = 4,
                      .replication_queue_limit = 2,
                      .service_us = 10});
  Message r1 = request(MsgType::kReplicaPush, 0, 0);
  r1.payload = Bytes{1};
  Message r2 = request(MsgType::kReplicaPush, 0, 0);
  r2.payload = Bytes{2};
  Message r3 = request(MsgType::kReplicaPush, 0, 0);
  r3.payload = Bytes{3};
  f.offer_consumed(std::move(r1));
  f.offer_consumed(std::move(r2));
  f.offer_consumed(std::move(r3));  // evicts r1: newest state wins
  f.offer_consumed(request(MsgType::kGetAttrReq, 9, 100));
  f.offer_consumed(request(MsgType::kCm, 0, 0));
  f.host.clock.run_until_idle();

  ASSERT_EQ(f.host.dispatched.size(), 4u);
  EXPECT_EQ(f.host.dispatched[0].type, MsgType::kCm);
  EXPECT_EQ(f.host.dispatched[1].type, MsgType::kGetAttrReq);
  EXPECT_EQ(f.host.dispatched[2].payload, (Bytes{2}));
  EXPECT_EQ(f.host.dispatched[3].payload, (Bytes{3}));
  EXPECT_EQ(f.counter("admission.shed.replication"), 1u);
}

TEST(Admission, ShutdownCancelsPumpAndClearsQueues) {
  AdmissionFixture f({.client_queue_limit = 4, .service_us = 100});
  f.offer_consumed(request(MsgType::kGetAttrReq, 1, 500));
  EXPECT_EQ(f.host.clock.pending_timers(), 1u);
  f.ctl.shutdown();
  EXPECT_EQ(f.host.clock.pending_timers(), 0u);
  EXPECT_EQ(f.ctl.total_depth(), 0u);
  f.host.clock.run_until_idle();
  EXPECT_TRUE(f.host.dispatched.empty());
}

// ---------------------------------------------------------------------------
// RpcEngine: retry budgets, Nack handling, bounded reliable queue
// ---------------------------------------------------------------------------

class FakeEngineHost final : public RpcEngine::Host {
 public:
  struct Sent {
    Message msg;
    Micros at = 0;
  };

  void route(Message m) override { sent.push_back({std::move(m), now()}); }
  [[nodiscard]] Micros now() const override { return clock.now(); }
  std::uint64_t schedule(Micros delay, std::function<void()> fn) override {
    return clock.add_timer(delay, std::move(fn));
  }
  void cancel(std::uint64_t timer_id) override {
    clock.remove_timer(timer_id);
  }
  [[nodiscard]] bool is_down(NodeId node) override {
    return down.contains(node);
  }
  [[nodiscard]] Rng& rng() override { return rng_; }
  [[nodiscard]] obs::Tracer& tracer() override { return tracer_; }

  [[nodiscard]] Message response_to(std::size_t i, MsgType type,
                                    Bytes payload = {}) const {
    Message m;
    m.type = type;
    m.src = sent.at(i).msg.dst;
    m.dst = 0;
    m.rpc_id = sent.at(i).msg.rpc_id;
    m.payload = std::move(payload);
    return m;
  }

  ManualClock clock;
  std::vector<Sent> sent;
  std::set<NodeId> down;

 private:
  Rng rng_{1234};
  obs::Tracer tracer_{0};
};

/// jitter 0 and a tiny retry budget: retries are the scarce resource.
RpcPolicy budget_policy(double cap, double ratio) {
  RpcPolicy p;
  p.attempt_timeout = 100;
  p.max_attempts = 4;
  p.backoff_base = 50;
  p.backoff_cap = 400;
  p.jitter = 0.0;
  p.retry_budget_cap = cap;
  p.retry_budget_ratio = ratio;
  return p;
}

struct BudgetFixture {
  BudgetFixture(double cap, double ratio)
      : engine(host, budget_policy(cap, ratio), metrics) {}

  [[nodiscard]] std::uint64_t counter(const std::string& name) {
    return metrics.counter(name).value();
  }

  FakeEngineHost host;
  obs::MetricsRegistry metrics;
  RpcEngine engine;
};

TEST(RetryBudget, ExhaustionFailsFastInsteadOfRetrying) {
  // Budget of 2, no refill: attempt 1 is free, retries 2 and 3 spend the
  // budget, the 4th attempt is refused even though max_attempts allows it.
  BudgetFixture f(2.0, 0.0);
  RpcEngine::CallOptions opts;
  opts.max_attempts = 10;
  std::optional<bool> got;
  f.engine.call({1}, MsgType::kPing, {},
                [&](bool ok, Decoder&) { got = ok; }, opts);
  f.host.clock.run_until_idle();  // nobody answers

  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(*got);
  EXPECT_EQ(f.host.sent.size(), 3u);  // 1 first attempt + 2 budgeted retries
  EXPECT_EQ(f.counter("rpc.retry_budget_exhausted"), 1u);
  EXPECT_EQ(f.host.clock.pending_timers(), 0u);
}

TEST(RetryBudget, FirstAttemptsRefillTheBucket) {
  // ratio 1.0: every first attempt deposits a full retry token, so a
  // steady stream of fresh calls keeps retries available.
  BudgetFixture f(1.0, 1.0);
  std::optional<bool> first;
  f.engine.call({1}, MsgType::kPing, {},
                [&](bool ok, Decoder&) { first = ok; });
  f.host.clock.run_until_idle();  // burns the whole budget on retries
  ASSERT_TRUE(first.has_value());
  EXPECT_FALSE(*first);
  const std::uint64_t exhausted_before =
      f.counter("rpc.retry_budget_exhausted");
  EXPECT_GE(exhausted_before, 1u);

  // Two fresh calls deposit; the second can afford one retry again.
  std::optional<bool> second;
  f.engine.call({1}, MsgType::kPing, {},
                [&](bool, Decoder&) {});
  f.engine.call({1}, MsgType::kPing, {},
                [&](bool ok, Decoder&) { second = ok; });
  const std::size_t sent_before = f.host.sent.size();
  f.host.clock.run_until_idle();
  EXPECT_GT(f.host.sent.size(), sent_before);  // at least one retry flowed
}

TEST(RetryBudget, DisabledByNonPositiveCap) {
  BudgetFixture f(0.0, 0.2);
  RpcEngine::CallOptions opts;
  opts.max_attempts = 6;
  f.engine.call({1}, MsgType::kPing, {}, [](bool, Decoder&) {}, opts);
  f.host.clock.run_until_idle();
  EXPECT_EQ(f.host.sent.size(), 6u);  // legacy behavior: all attempts fire
  EXPECT_EQ(f.counter("rpc.retry_budget_exhausted"), 0u);
}

TEST(RpcEngineNack, NackTriggersBackoffAndCandidateRotation) {
  BudgetFixture f(50.0, 0.2);
  std::optional<bool> got;
  f.engine.call({1, 2}, MsgType::kGetAttrReq, {},
                [&](bool ok, Decoder&) { got = ok; });
  ASSERT_EQ(f.host.sent.size(), 1u);
  EXPECT_EQ(f.host.sent[0].msg.dst, 1u);

  // Peer 1 is saturated and Nacks. Unlike an accept-predicate bounce the
  // retry backs off (the peer is overloaded, not wrong) and rotates.
  Message nack = f.host.response_to(0, MsgType::kNack);
  Encoder e;
  e.u8(static_cast<std::uint8_t>(ErrorCode::kOverloaded));
  nack.payload = std::move(e).take();
  EXPECT_TRUE(f.engine.on_response(nack));
  EXPECT_FALSE(got.has_value());
  EXPECT_EQ(f.host.sent.size(), 1u);  // no immediate resend
  EXPECT_EQ(f.counter("rpc.nacks"), 1u);

  f.host.clock.fire_next();  // backoff expires -> retry at next candidate
  ASSERT_EQ(f.host.sent.size(), 2u);
  EXPECT_EQ(f.host.sent[1].msg.dst, 2u);
  f.engine.on_response(f.host.response_to(1, MsgType::kGetAttrResp));
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(*got);
}

TEST(RpcEngineNack, NackOnLastAttemptFailsTheCall) {
  BudgetFixture f(50.0, 0.2);
  RpcEngine::CallOptions opts;
  opts.max_attempts = 1;
  std::optional<bool> got;
  f.engine.call({1}, MsgType::kGetAttrReq, {},
                [&](bool ok, Decoder&) { got = ok; }, opts);
  EXPECT_TRUE(f.engine.on_response(f.host.response_to(0, MsgType::kNack)));
  ASSERT_TRUE(got.has_value());
  EXPECT_FALSE(*got);
  EXPECT_EQ(f.host.clock.pending_timers(), 0u);
}

TEST(ReliableQueue, BoundEvictsOldestPerDestination) {
  RpcPolicy p = budget_policy(50.0, 0.2);
  p.reliable_queue_limit = 4;
  FakeEngineHost host;
  obs::MetricsRegistry metrics;
  RpcEngine engine(host, p, metrics);

  // Down destination: sends park in the queue instead of going out.
  host.down.insert(1);
  for (std::uint8_t i = 0; i < 10; ++i) {
    engine.send_reliable(1, MsgType::kFreeReq, Bytes{i});
  }
  EXPECT_EQ(engine.reliable_queue_depth(), 4u);
  EXPECT_EQ(metrics.counter("rpc.reliable_dropped").value(), 6u);

  // Another destination has its own allowance.
  host.down.insert(2);
  engine.send_reliable(2, MsgType::kFreeReq, Bytes{99});
  EXPECT_EQ(engine.reliable_queue_depth(), 5u);
  EXPECT_EQ(metrics.counter("rpc.reliable_dropped").value(), 6u);

  // The survivors are the NEWEST four for node 1: when it comes back, the
  // engine resends payloads 6..9, not the stale head of the queue.
  host.down.clear();
  engine.on_node_up(1);
  engine.on_node_up(2);
  // Nobody acks, so reliable sends retry forever: pump a bounded number
  // of timers, enough for every queued record to go out at least once.
  for (int i = 0; i < 64 && host.clock.fire_next(); ++i) {
  }
  std::vector<std::uint8_t> sent_payloads;
  for (const auto& s : host.sent) {
    if (s.msg.dst == 1 && !s.msg.payload.empty()) {
      sent_payloads.push_back(s.msg.payload[0]);
    }
  }
  // Retries re-send the same records; dedupe preserving first-seen order.
  std::vector<std::uint8_t> unique;
  for (std::uint8_t v : sent_payloads) {
    if (std::find(unique.begin(), unique.end(), v) == unique.end()) {
      unique.push_back(v);
    }
  }
  EXPECT_EQ(unique, (std::vector<std::uint8_t>{6, 7, 8, 9}));
  engine.shutdown();
}

// ---------------------------------------------------------------------------
// Simulator: the Nack path end to end, and the 2x-saturation soak
// ---------------------------------------------------------------------------

TEST(OverloadSim, QueueFullShedsWithNackAndCallerFailsFast) {
  // Client queue of 1 and a glacial service rate: the first request parks,
  // everything after it is shed with a Nack.
  SimWorld world({.nodes = 2,
                  .admission_client_queue = 1,
                  .admission_service_us = 1'000'000});
  Node& client = world.node(1);

  Encoder e;
  e.addr(GlobalAddress{1});
  const Bytes payload = std::move(e).take();
  RpcEngine::CallOptions opts;
  opts.max_attempts = 1;  // a Nack on the only attempt fails the call
  std::vector<std::optional<bool>> got(3);
  for (auto& slot : got) {
    client.rpc_engine().call({0}, MsgType::kGetAttrReq, Bytes(payload),
                             [&slot](bool ok, Decoder&) { slot = ok; }, opts);
  }
  ASSERT_TRUE(world.pump_until(
      [&] { return got[1].has_value() && got[2].has_value(); }, 2'000'000));

  // Calls 2 and 3 failed fast via Nack, long before the 1s service time.
  EXPECT_FALSE(*got[1]);
  EXPECT_FALSE(*got[2]);
  EXPECT_LT(world.net().now(), 500'000);
  auto& server = world.node(0).metrics();
  EXPECT_EQ(server.counter("admission.shed").value(), 2u);
  EXPECT_EQ(server.counter("admission.nacks_sent").value(), 2u);
  EXPECT_EQ(client.metrics().counter("rpc.nacks").value(), 2u);
}

TEST(OverloadSim, SoakAtTwiceSaturationStaysBounded) {
  constexpr Micros kServiceUs = 500;  // saturation = 2000 ops/s
  constexpr std::size_t kClientQueue = 64;
  SimWorld world({.nodes = 3,
                  .rpc_timeout = 50'000,
                  .admission_client_queue = kClientQueue,
                  .admission_protocol_queue = 256,
                  .admission_replication_queue = 256,
                  .admission_service_us = kServiceUs,
                  .seed = 11});

  std::vector<GlobalAddress> bases;
  for (int r = 0; r < 16; ++r) {
    auto base = world.create_region(0, 4096);
    ASSERT_TRUE(base.ok());
    bases.push_back(base.value());
  }
  world.pump_for(300'000);  // drain the creates' background traffic
  for (const auto& b : bases) {
    bool warmed = false;
    for (int attempt = 0; attempt < 5 && !warmed; ++attempt) {
      warmed = world.getattr(1, b).ok();
    }
    ASSERT_TRUE(warmed);
  }

  Node& client = world.node(1);
  bench::OpenLoopLoad::Options opts;
  opts.rate_ops_per_sec = 4000;  // 2x saturation
  opts.duration = 1'500'000;
  opts.keys = bases.size();
  opts.clients = 2000;
  opts.seed = 5;
  bench::OpenLoopLoad load(
      client, opts, [&client, &bases](std::size_t, std::size_t key,
                                      auto done) {
        RpcEngine::DeadlineScope scope(client.rpc_engine(),
                                       client.now() + 50'000);
        client.getattr(bases[key],
                       [done = std::move(done)](auto r) { done(r.ok()); });
      });
  load.start();

  // Pump in slices, auditing the invariants that define "bounded" while
  // the overload is in progress — not just after it drained.
  std::size_t peak_client_depth = 0;
  std::uint64_t peak_inflight = 0;
  int slices = 0;
  while (!load.done()) {
    ASSERT_LT(++slices, 400) << "soak failed to drain";
    world.pump_for(25'000);  // sample mid-overload, not after the drain
    for (NodeId n = 0; n < 3; ++n) {
      auto& adm = world.node(n).admission();
      EXPECT_LE(adm.depth(OpClass::kClient), kClientQueue);
      EXPECT_LE(adm.depth(OpClass::kProtocol), 256u);
      EXPECT_LE(adm.depth(OpClass::kReplication), 256u);
      peak_client_depth =
          std::max(peak_client_depth, adm.depth(OpClass::kClient));
    }
    // In-flight calls are bounded by offered rate x deadline (= 200), not
    // by the soak's length; a leak would blow straight past this.
    peak_inflight =
        std::max(peak_inflight, client.rpc_engine().inflight_calls());
    ASSERT_LT(client.rpc_engine().inflight_calls(), 2'000u);
    ASSERT_LT(client.rpc_engine().reliable_queue_depth(), 1'000u);
  }

  auto& stats = load.stats();
  EXPECT_EQ(stats.completed(), stats.issued.load());  // nothing leaked
  EXPECT_GT(stats.ok.load(), 0u);
  EXPECT_GT(stats.failed.load(), 0u);  // 2x saturation must fail some
  EXPECT_GT(peak_client_depth, 0u);    // the queue actually engaged
  EXPECT_GT(
      world.node(0).metrics().counter("admission.shed").value(), 0u);
  // Goodput held near capacity: overload degraded gracefully instead of
  // collapsing (the pre-admission behavior loses nearly everything here).
  EXPECT_GT(stats.ok.load(),
            static_cast<std::uint64_t>(0.5 * 2000 * 1.5));
}

}  // namespace
}  // namespace khz::core
