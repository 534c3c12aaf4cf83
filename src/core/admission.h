// Deadline-aware admission control for a node's request plane.
//
// Khazana's motivating deployments (web-cache-style services, Section 1)
// put one daemon in front of many independent clients, so a node must
// survive offered load past its service capacity. Without admission
// control every arriving request is handled in arrival order: queues grow
// without bound, every queued request eventually blows its deadline, and
// goodput collapses to zero exactly when the system is busiest. This
// controller gives the request plane the classic overload shape instead:
//
//   - arriving work is classified into three bounded queues — protocol
//     rounds (CM traffic, page fetches: drives forward progress of grants
//     other nodes are waiting on), client ops (rpc_id-bearing requests),
//     and replication (copyset maintenance pushes, the FunnelKVS-style
//     write-behind class that must never sit on the admission-critical
//     path);
//   - the client queue dispatches earliest-deadline-first and sheds
//     latest-deadline-first when full, so the requests most likely to
//     still matter are the ones that get served;
//   - shedding an rpc_id-bearing request sends a kNack backpressure reply
//     (payload: u8 ErrorCode::kOverloaded) so the caller's engine backs
//     off immediately instead of waiting out an attempt timeout;
//   - protocol messages keep FIFO order within their class (the CREW
//     protocols are ordering-sensitive) and overflow drops the newest
//     arrival — the per-page protocol timers recover, exactly like a lost
//     message;
//   - replication overflow drops oldest-first (the newest push carries the
//     freshest state);
//   - drain order is strict priority: protocol > client > replication.
//
// service_us > 0 paces the drain at one message per service_us, modelling
// a server whose handler work takes real CPU time. The discrete-event
// simulator needs this to exhibit saturation at all (handlers consume zero
// virtual time), and it is how bench_overload positions its knee. With
// service_us == 0 queued work drains on the next scheduler tick.
//
// All limits 0 (the default) disables admission entirely: offer() refuses
// every message and the node dispatches synchronously, byte-for-byte the
// pre-admission behavior.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "common/types.h"
#include "net/message.h"
#include "obs/metrics.h"

namespace khz::core {

/// Which admission queue a message belongs to. kBypass messages are never
/// queued: responses (the engine correlates them), liveness probes (delay
/// would cause false down verdicts), membership and one-way hint traffic.
enum class OpClass : std::uint8_t {
  kBypass,
  kProtocol,
  kClient,
  kReplication,
};

struct AdmissionConfig {
  /// Per-class queue bounds. 0 = admission disabled for that class (the
  /// message dispatches synchronously). All three 0 = controller off.
  std::size_t client_queue_limit = 0;
  std::size_t protocol_queue_limit = 0;
  std::size_t replication_queue_limit = 0;
  /// Pacing: one dispatched message per service_us of scheduler time.
  /// 0 = drain the whole backlog on the next tick.
  Micros service_us = 0;
};

class AdmissionController {
 public:
  /// What the controller needs from its node. Narrow so the shed-ordering
  /// unit tests run against a fake with manual time.
  class Host {
   public:
    virtual ~Host() = default;
    [[nodiscard]] virtual Micros now() const = 0;
    virtual std::uint64_t schedule(Micros delay,
                                   std::function<void()> fn) = 0;
    virtual void cancel(std::uint64_t timer_id) = 0;
    /// Hands an admitted message to the request plane (the node re-opens
    /// its deadline scope and trace span here).
    virtual void dispatch(const net::Message& m) = 0;
    /// Sends the kNack backpressure reply for a shed rpc_id-bearing
    /// request. One-way messages are shed silently.
    virtual void nack(const net::Message& m) = 0;
  };

  AdmissionController(Host& host, AdmissionConfig config,
                      obs::MetricsRegistry& metrics);

  AdmissionController(const AdmissionController&) = delete;
  AdmissionController& operator=(const AdmissionController&) = delete;

  /// The queue a message of this type is admitted through.
  [[nodiscard]] static OpClass classify(net::MsgType t);

  /// Offers an arriving request to the controller. Returns true when the
  /// message was consumed (queued, or shed with backpressure) — `msg` is
  /// moved from in that case. False means the message was not touched and
  /// the caller must dispatch it synchronously (bypass class, or admission
  /// disabled for the class).
  bool offer(net::Message& msg);

  [[nodiscard]] std::size_t depth(OpClass c) const;
  [[nodiscard]] std::size_t total_depth() const {
    return protocol_.size() + client_.size() + replication_.size();
  }

  /// Cancels the drain timer and drops all queued work (node shutdown).
  void shutdown();

 private:
  struct Pending {
    net::Message msg;
    Micros enqueued_at = 0;
  };

  [[nodiscard]] std::size_t limit_for(OpClass c) const;
  void enqueue_client(Pending p);
  void shed(Pending p, OpClass c);
  void arm_pump();
  void pump();
  /// Pops the highest-priority admitted message; false when all queues are
  /// empty. Expired client entries are dropped here, not served.
  bool pop_next(Pending& out);
  void update_depth_gauges();

  Host& host_;
  AdmissionConfig config_;

  std::deque<Pending> protocol_;
  /// EDF order: keyed by effective deadline (0 = none, sorts last — work
  /// nobody put a budget on has the least claim to a saturated server).
  std::multimap<std::uint64_t, Pending> client_;
  std::deque<Pending> replication_;

  std::uint64_t pump_timer_ = 0;

  struct {
    obs::Counter* enq_protocol = nullptr;
    obs::Counter* enq_client = nullptr;
    obs::Counter* enq_replication = nullptr;
    obs::Counter* shed_protocol = nullptr;
    obs::Counter* shed_client = nullptr;
    obs::Counter* shed_replication = nullptr;
    obs::Counter* shed_total = nullptr;
    obs::Counter* nacks_sent = nullptr;
    obs::Counter* expired_in_queue = nullptr;
    /// Current depth per class (first-class gauges: levels, not rates).
    obs::Gauge* depth_protocol = nullptr;
    obs::Gauge* depth_client = nullptr;
    obs::Gauge* depth_replication = nullptr;
    obs::Histogram* queue_us = nullptr;
  } ins_;
};

}  // namespace khz::core
