#include "core/rpc_engine.h"

#include <algorithm>
#include <string>
#include <utility>

namespace khz::core {

namespace {

std::string attempt_span_name(net::MsgType type) {
  return std::string("rpc:") + std::string(net::to_string(type));
}

}  // namespace

RpcEngine::RpcEngine(Host& host, RpcPolicy policy,
                     obs::MetricsRegistry& metrics)
    : host_(host), policy_(policy) {
  ins_.attempts = &metrics.counter("rpc.attempts");
  ins_.steered = &metrics.counter("rpc.steered");
  // Client-side expiries only; the node counts server-side drops of
  // expired work under rpc.deadline_expired.server, so shed-rate
  // attribution can tell "my budget ran out" from "the server shed me".
  ins_.deadline_expired = &metrics.counter("rpc.deadline_expired.client");
  ins_.duplicate_replies = &metrics.counter("rpc.duplicate_replies");
  ins_.down_short_circuits = &metrics.counter("rpc.down_short_circuits");
  // Background (reliable-send) retries; named node.* since before the
  // engine was split out of the node.
  ins_.background_retries = &metrics.counter("node.background_retries");
  ins_.nacks = &metrics.counter("rpc.nacks");
  ins_.budget_exhausted = &metrics.counter("rpc.retry_budget_exhausted");
  ins_.reliable_dropped = &metrics.counter("rpc.reliable_dropped");
  ins_.backoff_us = &metrics.histogram("rpc.backoff_us");
}

RpcEngine::~RpcEngine() { shutdown(); }

Micros RpcEngine::backoff(int attempt) {
  // Exponential from base, capped, then jittered +/- policy.jitter.
  Micros d = policy_.backoff_base;
  for (int i = 1; i < attempt && d < policy_.backoff_cap; ++i) d *= 2;
  d = std::min(d, policy_.backoff_cap);
  const auto jitter = static_cast<Micros>(static_cast<double>(d) *
                                          policy_.jitter);
  const Micros lo = d - jitter;
  return lo + host_.rng().below(2 * jitter + 1);
}

void RpcEngine::call(std::vector<NodeId> candidates, net::MsgType type,
                     Bytes payload, Handler handler, CallOptions opts) {
  if (candidates.empty()) {
    Decoder empty(std::span<const std::uint8_t>{});
    handler(false, empty);
    return;
  }
  const std::uint64_t id = next_call_id_++;
  Call& c = calls_[id];
  c.candidates = std::move(candidates);
  c.type = type;
  c.payload = std::move(payload);
  c.handler = std::move(handler);
  c.accept = std::move(opts.accept);
  c.attempts_left =
      opts.max_attempts > 0
          ? opts.max_attempts
          : std::max(policy_.max_attempts,
                     static_cast<int>(c.candidates.size()));
  c.deadline = opts.deadline != 0 ? opts.deadline : ambient_deadline_;
  c.ignore_down = opts.ignore_down;
  c.issue_ctx = host_.tracer().current();
  start_attempt(id);
}

NodeId RpcEngine::pick_candidate(Call& c) const {
  for (std::size_t i = 0; i < c.candidates.size(); ++i) {
    const std::size_t idx = (c.cursor + i) % c.candidates.size();
    const NodeId cand = c.candidates[idx];
    if (c.ignore_down || !host_.is_down(cand)) {
      c.cursor = idx;
      return cand;
    }
  }
  return kNoNode;
}

void RpcEngine::start_attempt(std::uint64_t call_id) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  Call& c = it->second;
  const Micros now = host_.now();
  if (c.deadline != 0 && now >= c.deadline) {
    ins_.deadline_expired->inc();
    finish(call_id, false, nullptr);
    return;
  }
  const NodeId target = pick_candidate(c);
  if (target == kNoNode) {
    // Every candidate is marked down: fail now instead of burning attempt
    // timeouts against peers the detector already declared dead.
    ins_.down_short_circuits->inc();
    finish(call_id, false, nullptr);
    return;
  }
  if (target != c.candidates.front()) ins_.steered->inc();
  if (!budget_attempt(target, c.attempts_made > 0)) {
    // The destination's retry budget is spent: fail fast instead of piling
    // more retries onto a peer that is already not keeping up.
    finish(call_id, false, nullptr);
    return;
  }
  ins_.attempts->inc();
  ++c.attempts_made;
  --c.attempts_left;

  const RpcId rid = next_rpc_id_++;
  rpc_to_call_[rid] = call_id;
  c.issued.push_back(rid);

  net::Message m;
  m.type = c.type;
  m.dst = target;
  m.rpc_id = rid;
  m.deadline = c.deadline;
  m.payload = c.payload;
  if (c.issue_ctx.active()) {
    // Client-side span per attempt; the wire carries the span id so the
    // server's rx span parents under it.
    c.span = host_.tracer().begin_span(attempt_span_name(c.type),
                                       c.issue_ctx);
    m.trace_id = c.span.trace_id;
    m.span_id = c.span.span_id;
  }

  Micros timeout = policy_.attempt_timeout;
  if (c.deadline != 0) timeout = std::min(timeout, c.deadline - now);
  c.timer = host_.schedule(timeout,
                           [this, call_id] { on_attempt_timeout(call_id); });
  host_.route(std::move(m));
}

void RpcEngine::on_attempt_timeout(std::uint64_t call_id) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  Call& c = it->second;
  c.timer = 0;
  host_.tracer().end_span(c.span);
  c.span = {};
  if (c.attempts_left <= 0) {
    finish(call_id, false, nullptr);
    return;
  }
  schedule_retry(call_id);
}

void RpcEngine::schedule_retry(std::uint64_t call_id) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  Call& c = it->second;
  const Micros now = host_.now();
  if (c.deadline != 0 && now >= c.deadline) {
    ins_.deadline_expired->inc();
    finish(call_id, false, nullptr);
    return;
  }
  c.cursor = (c.cursor + 1) % c.candidates.size();
  const Micros delay = backoff(c.attempts_made);
  if (c.deadline != 0 && now + delay >= c.deadline) {
    // The backoff wait alone would blow the budget; there is nobody left
    // to answer in time, so reflect the expiry now (Section 3.5).
    ins_.deadline_expired->inc();
    finish(call_id, false, nullptr);
    return;
  }
  ins_.backoff_us->record(delay);
  c.timer = host_.schedule(delay, [this, call_id] {
    auto cit = calls_.find(call_id);
    if (cit == calls_.end()) return;
    cit->second.timer = 0;
    start_attempt(call_id);
  });
}

bool RpcEngine::budget_attempt(NodeId dst, bool retry) {
  if (policy_.retry_budget_cap <= 0) return true;  // budgeting disabled
  auto [it, inserted] = budget_.try_emplace(dst, policy_.retry_budget_cap);
  double& tokens = it->second;
  if (!retry) {
    tokens = std::min(policy_.retry_budget_cap,
                      tokens + policy_.retry_budget_ratio);
    return true;
  }
  if (tokens < 1.0) {
    ins_.budget_exhausted->inc();
    return false;
  }
  tokens -= 1.0;
  return true;
}

bool RpcEngine::on_response(const net::Message& msg) {
  auto rit = rpc_to_call_.find(msg.rpc_id);
  if (rit == rpc_to_call_.end()) {
    // Stray: either a duplicate of a completed call or a reply that
    // outlived its call. Harmless by design.
    ins_.duplicate_replies->inc();
    return false;
  }
  const std::uint64_t call_id = rit->second;
  auto it = calls_.find(call_id);
  if (it == calls_.end()) {
    rpc_to_call_.erase(rit);
    return false;
  }
  Call& c = it->second;
  if (msg.type == net::MsgType::kNack) {
    // Backpressure: the server shed this attempt at admission. The peer is
    // alive but saturated, so unlike the accept-bounce below the retry
    // waits out a backoff (and rotates candidates) rather than re-firing
    // immediately into the same full queue.
    ins_.nacks->inc();
    rpc_to_call_.erase(rit);
    if (c.timer != 0) {
      host_.cancel(c.timer);
      c.timer = 0;
    }
    host_.tracer().end_span(c.span);
    c.span = {};
    if (c.attempts_left <= 0) {
      finish(call_id, false, nullptr);
      return true;
    }
    schedule_retry(call_id);
    return true;
  }
  if (c.accept && !c.accept(Decoder(msg.payload))) {
    // Well-formed reply, wrong node ("not the home"): steer to the next
    // candidate immediately — the peer is alive, no backoff needed.
    rpc_to_call_.erase(rit);
    if (c.timer != 0) {
      host_.cancel(c.timer);
      c.timer = 0;
    }
    host_.tracer().end_span(c.span);
    c.span = {};
    if (c.attempts_left <= 0) {
      finish(call_id, false, nullptr);
      return true;
    }
    c.cursor = (c.cursor + 1) % c.candidates.size();
    start_attempt(call_id);
    return true;
  }
  finish(call_id, true, &msg.payload);
  return true;
}

void RpcEngine::finish(std::uint64_t call_id, bool ok, const Bytes* payload) {
  auto it = calls_.find(call_id);
  if (it == calls_.end()) return;
  Call c = std::move(it->second);
  calls_.erase(it);
  if (c.timer != 0) host_.cancel(c.timer);
  for (const RpcId rid : c.issued) rpc_to_call_.erase(rid);
  host_.tracer().end_span(c.span);
  // The continuation belongs to the trace — and the deadline — of the
  // operation that issued the call: chained RPCs inherit both.
  obs::ScopedTraceContext scope(host_.tracer(), c.issue_ctx);
  DeadlineScope dscope(*this, c.deadline);
  if (ok) {
    Decoder d(*payload);
    c.handler(true, d);
  } else {
    Decoder empty(std::span<const std::uint8_t>{});
    c.handler(false, empty);
  }
}

void RpcEngine::send_reliable(NodeId dst, net::MsgType type, Bytes payload) {
  // Bound the backlog per destination: a peer that stays down for hours
  // must not grow this map without limit. Drop oldest-first — the newest
  // message usually supersedes it (replica pushes, hint publishes carry
  // current state), and the map is keyed by increasing id, so the first
  // match is the oldest.
  std::size_t depth = 0;
  auto oldest = reliable_.end();
  for (auto it = reliable_.begin(); it != reliable_.end(); ++it) {
    if (it->second.dst != dst) continue;
    if (oldest == reliable_.end()) oldest = it;
    ++depth;
  }
  if (depth >= policy_.reliable_queue_limit && oldest != reliable_.end()) {
    if (oldest->second.retry_timer != 0) {
      host_.cancel(oldest->second.retry_timer);
    }
    // If the entry has an attempt in flight its completion lambda finds
    // the id gone and does nothing — same late-reply tolerance as calls.
    reliable_.erase(oldest);
    ins_.reliable_dropped->inc();
  }
  const std::uint64_t rid = next_reliable_id_++;
  reliable_[rid] = ReliableSend{dst, type, std::move(payload)};
  reliable_attempt(rid);
}

void RpcEngine::reliable_attempt(std::uint64_t rid) {
  auto it = reliable_.find(rid);
  if (it == reliable_.end()) return;
  ReliableSend& rs = it->second;
  rs.retry_timer = 0;
  if (host_.is_down(rs.dst)) {
    // Known-down peer: stop hammering; on_node_up() resumes us.
    rs.paused = true;
    return;
  }
  // Keep trying until an ack arrives ("the Khazana system keeps trying the
  // operation in the background until it succeeds", Section 3.5).
  CallOptions opts;
  opts.max_attempts = 1;
  call({rs.dst}, rs.type, rs.payload, [this, rid](bool ok, Decoder&) {
    auto rit = reliable_.find(rid);
    if (rit == reliable_.end()) return;
    if (ok) {
      reliable_.erase(rit);
      return;
    }
    ReliableSend& r = rit->second;
    ins_.background_retries->inc();
    ++r.failures;
    if (host_.is_down(r.dst)) {
      r.paused = true;
      return;
    }
    const Micros delay = backoff(r.failures);
    ins_.backoff_us->record(delay);
    r.retry_timer =
        host_.schedule(delay, [this, rid] { reliable_attempt(rid); });
  }, std::move(opts));
}

void RpcEngine::on_node_up(NodeId node) {
  for (auto& [rid, rs] : reliable_) {
    if (rs.dst != node || !rs.paused) continue;
    rs.paused = false;
    // Re-kick from the scheduler so resumption never re-enters whatever
    // message handler noticed the node come back.
    rs.retry_timer = host_.schedule(
        0, [this, rid = rid] { reliable_attempt(rid); });
  }
}

void RpcEngine::shutdown() {
  for (auto& [id, c] : calls_) {
    if (c.timer != 0) host_.cancel(c.timer);
    host_.tracer().end_span(c.span);
  }
  calls_.clear();
  rpc_to_call_.clear();
  for (auto& [rid, rs] : reliable_) {
    if (rs.retry_timer != 0) host_.cancel(rs.retry_timer);
  }
  reliable_.clear();
}

}  // namespace khz::core
