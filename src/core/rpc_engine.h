// Client-side RPC substrate: one engine per node owning every retry loop.
//
// Khazana's failure model (Section 3.5) says acquire-type operations are
// retried a bounded number of times and then reflected to the caller, while
// release-type operations are retried in the background until they succeed.
// Before this engine existed those two sentences were implemented by eight
// hand-rolled retry sites in node_ops.cc, a bespoke candidate loop in the
// resolver, and a fixed-interval background queue — each with its own timer
// bookkeeping and its own bugs. The engine centralizes:
//
//   - request/response correlation (rpc_id allocation, duplicate-reply
//     tolerance: every attempt of a call stays routable until the call
//     completes, so a slow reply to attempt 1 still completes the call
//     after attempt 2 was issued),
//   - per-attempt timeouts derived from a per-operation deadline that rides
//     the Message envelope (servers drop expired work; nested RPCs inherit
//     the remaining budget via DeadlineScope),
//   - capped jittered exponential backoff between attempts,
//   - multi-candidate failover: attempts rotate through a candidate list,
//     and an application-level accept predicate can bounce a well-formed
//     reply ("not the home") to steer to the next candidate immediately,
//   - down-node short-circuiting: candidates the failure detector has
//     declared dead are skipped without burning an attempt timeout,
//   - per-destination retry budgets (token buckets): retries withdraw from
//     a bucket that only first attempts refill, so a saturated server sees
//     a bounded retry tax instead of congestion collapse; admission Nacks
//     from an overloaded server rotate candidates after backoff,
//   - the reliable-send background queue, with backoff, down-peer pausing
//     instead of blind fixed-interval hammering, and a per-destination
//     depth bound (oldest-first drop) so a long-down peer cannot
//     accumulate unbounded state.
//
// The engine sees its node through the narrow Host interface below, so it
// unit-tests against a fake with manual time and captured sends.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/rng.h"
#include "common/serialize.h"
#include "common/types.h"
#include "net/message.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace khz::core {

/// Retry/timeout policy for every call issued through an engine. One struct,
/// one place: changing retry behavior is a policy edit, not an N-site audit.
struct RpcPolicy {
  /// How long a single attempt may wait for its response.
  Micros attempt_timeout = 200'000;
  /// Default total attempts (first try + retries) when the caller does not
  /// override. Calls with more candidates than this get one attempt per
  /// candidate so every replica is probed at least once.
  int max_attempts = 4;
  /// First backoff delay; doubles per subsequent attempt.
  Micros backoff_base = 25'000;
  /// Ceiling for the exponential growth.
  Micros backoff_cap = 800'000;
  /// Each delay is drawn uniformly from [d*(1-jitter), d*(1+jitter)] so
  /// synchronized clients do not retry in lockstep.
  double jitter = 0.5;

  /// Retry budget (per destination, token bucket): every *first* attempt
  /// deposits this many tokens, every retry withdraws one. Under overload
  /// the sustained retry rate is thus capped at ratio * request rate, so
  /// retries cannot amplify a saturated server into congestion collapse.
  double retry_budget_ratio = 0.2;
  /// Bucket ceiling (and initial fill): a burst of retries against a fresh
  /// or long-idle destination may spend up to this many before the ratio
  /// governs. 0 disables budgeting entirely.
  double retry_budget_cap = 50;
  /// Maximum queued reliable sends per destination (at least 1). A
  /// long-down peer stops accumulating past this: the oldest pending
  /// delivery to it is dropped (counted as rpc.reliable_dropped).
  std::size_t reliable_queue_limit = 256;
};

class RpcEngine {
 public:
  /// What the engine needs from the node it lives in. Narrow by design:
  /// a test host is ~30 lines.
  class Host {
   public:
    virtual ~Host() = default;
    /// Delivers a fully-formed message (self-sends must loop back through
    /// the scheduler, never re-enter handlers synchronously).
    virtual void route(net::Message m) = 0;
    [[nodiscard]] virtual Micros now() const = 0;
    virtual std::uint64_t schedule(Micros delay,
                                   std::function<void()> fn) = 0;
    virtual void cancel(std::uint64_t timer_id) = 0;
    /// Failure-detector verdict; down candidates are skipped.
    [[nodiscard]] virtual bool is_down(NodeId node) = 0;
    [[nodiscard]] virtual Rng& rng() = 0;
    [[nodiscard]] virtual obs::Tracer& tracer() = 0;
  };

  /// Delivery continuation: ok=false means the call failed (every attempt
  /// timed out, all candidates down, or the deadline expired) and `d` is
  /// empty. ok=true hands the accepted response payload.
  using Handler = std::function<void(bool ok, Decoder& d)>;
  /// Application-level steering predicate, run on each well-formed reply.
  /// Returning false bounces the reply ("I'm not the home") and moves to
  /// the next candidate immediately — no backoff, mirroring how the old
  /// fetch_descriptor walked its candidate list.
  using AcceptFn = std::function<bool(Decoder d)>;

  struct CallOptions {
    /// Total attempts; 0 = max(policy.max_attempts, candidates.size()).
    int max_attempts = 0;
    /// Absolute deadline; 0 inherits the ambient deadline (DeadlineScope),
    /// which is itself 0 ("none") outside any scope.
    Micros deadline = 0;
    /// Probe semantics: send even to candidates marked down. The failure
    /// detector's pings need this — a down node can only be noticed as
    /// back up if somebody still talks to it.
    bool ignore_down = false;
    AcceptFn accept;
  };

  RpcEngine(Host& host, RpcPolicy policy, obs::MetricsRegistry& metrics);
  ~RpcEngine();

  RpcEngine(const RpcEngine&) = delete;
  RpcEngine& operator=(const RpcEngine&) = delete;

  /// Issues an RPC against an ordered candidate list. Attempt k goes to
  /// candidates[k mod size] (skipping down nodes unless ignore_down); the
  /// handler fires exactly once.
  void call(std::vector<NodeId> candidates, net::MsgType type, Bytes payload,
            Handler handler, CallOptions opts);
  void call(std::vector<NodeId> candidates, net::MsgType type, Bytes payload,
            Handler handler) {
    call(std::move(candidates), type, std::move(payload), std::move(handler),
         CallOptions());
  }

  /// Background until-it-sticks delivery (Section 3.5 release ops): retried
  /// with capped jittered backoff, paused while the destination is marked
  /// down and re-kicked by on_node_up().
  void send_reliable(NodeId dst, net::MsgType type, Bytes payload);

  /// Resumes reliable sends that were paused because `node` was down.
  void on_node_up(NodeId node);

  /// Pending background (reliable) deliveries.
  [[nodiscard]] std::size_t reliable_queue_depth() const {
    return reliable_.size();
  }

  /// In-flight foreground calls (issued, not yet finished). The overload
  /// soak asserts this stays bounded at 2x saturation offered load.
  [[nodiscard]] std::size_t inflight_calls() const { return calls_.size(); }

  /// Routes a response message to its call. Returns false for strays:
  /// duplicates of an already-completed call or replies that outlived it.
  bool on_response(const net::Message& msg);

  /// Backoff delay before attempt `attempt + 1` (attempt is 1-based count
  /// of attempts already made). Exposed so protocol retry paths (CREW
  /// rounds) share the exact policy without issuing through the engine.
  [[nodiscard]] Micros backoff(int attempt);

  /// Cancels every pending timer and drops all in-flight state. Handlers
  /// are NOT invoked — this is shutdown, not failure. Safe to call twice.
  void shutdown();

  /// The deadline calls inherit when CallOptions.deadline == 0.
  [[nodiscard]] Micros ambient_deadline() const { return ambient_deadline_; }

  /// RAII ambient-deadline window. A server opens one around request
  /// handling (from the envelope's deadline field) so nested RPCs inherit
  /// the remaining budget; the engine itself opens one around each call's
  /// continuation so chained calls (resolve, then allocate) stay under the
  /// original operation's deadline. Nested scopes only ever tighten.
  class DeadlineScope {
   public:
    DeadlineScope(RpcEngine& engine, Micros deadline)
        : engine_(engine), prev_(engine.ambient_deadline_) {
      if (deadline != 0 && (prev_ == 0 || deadline < prev_)) {
        engine_.ambient_deadline_ = deadline;
      }
    }
    ~DeadlineScope() { engine_.ambient_deadline_ = prev_; }
    DeadlineScope(const DeadlineScope&) = delete;
    DeadlineScope& operator=(const DeadlineScope&) = delete;

   private:
    RpcEngine& engine_;
    Micros prev_;
  };

  [[nodiscard]] const RpcPolicy& policy() const { return policy_; }

 private:
  struct Call {
    std::vector<NodeId> candidates;
    std::size_t cursor = 0;  // next candidate index (pre-rotation)
    net::MsgType type{};
    Bytes payload;
    Handler handler;
    AcceptFn accept;
    int attempts_left = 0;
    int attempts_made = 0;
    Micros deadline = 0;
    bool ignore_down = false;
    std::uint64_t timer = 0;  // attempt timeout OR backoff wait
    /// Every rpc_id this call has issued; all stay registered until the
    /// call completes (duplicate / late-reply tolerance).
    std::vector<RpcId> issued;
    obs::TraceContext issue_ctx;
    obs::TraceContext span;  // current attempt's client-side span
  };

  struct ReliableSend {
    NodeId dst = kNoNode;
    net::MsgType type{};
    Bytes payload;
    int failures = 0;
    std::uint64_t retry_timer = 0;  // backoff wait between attempts
    /// Destination known down: attempts stop until on_node_up().
    bool paused = false;
  };

  void start_attempt(std::uint64_t call_id);
  void on_attempt_timeout(std::uint64_t call_id);
  /// Common retry tail (timeout and Nack paths): rotate to the next
  /// candidate and re-attempt after backoff, unless the remaining deadline
  /// cannot cover the wait.
  void schedule_retry(std::uint64_t call_id);
  /// Token-bucket accounting for attempts against `dst`. Returns false
  /// when `retry` is true and the destination's budget is empty — the
  /// caller must fast-fail instead of retrying.
  bool budget_attempt(NodeId dst, bool retry);
  /// Next not-down candidate at/after cursor, or kNoNode if all are down.
  [[nodiscard]] NodeId pick_candidate(Call& c) const;
  void finish(std::uint64_t call_id, bool ok, const Bytes* payload);
  void reliable_attempt(std::uint64_t rid);

  Host& host_;
  RpcPolicy policy_;
  Micros ambient_deadline_ = 0;

  std::unordered_map<std::uint64_t, Call> calls_;
  std::unordered_map<RpcId, std::uint64_t> rpc_to_call_;
  std::uint64_t next_call_id_ = 1;
  RpcId next_rpc_id_ = 1;

  std::map<std::uint64_t, ReliableSend> reliable_;
  std::uint64_t next_reliable_id_ = 1;

  /// Per-destination retry budgets (Finagle-style token buckets). Buckets
  /// start full so a cold start can absorb a retry burst; steady-state
  /// refill comes only from first attempts.
  std::map<NodeId, double> budget_;

  struct {
    obs::Counter* attempts = nullptr;
    obs::Counter* steered = nullptr;
    obs::Counter* deadline_expired = nullptr;
    obs::Counter* duplicate_replies = nullptr;
    obs::Counter* down_short_circuits = nullptr;
    obs::Counter* background_retries = nullptr;
    obs::Counter* nacks = nullptr;
    obs::Counter* budget_exhausted = nullptr;
    obs::Counter* reliable_dropped = nullptr;
    obs::Histogram* backoff_us = nullptr;
  } ins_;
};

}  // namespace khz::core
