// Transport abstraction.
//
// A Transport delivers Messages between nodes and runs deferred callbacks
// (timers) in the owning node's execution context. Node logic built on this
// interface runs unchanged over the deterministic simulator and over real
// TCP sockets — the paper's claim that only the messaging layer is
// system-dependent (Section 5), made concrete.
//
// Execution model: every callback for one node (inbound messages, timers,
// posted jobs) runs in one serialized execution context, so node state that
// only callbacks touch needs no locking. Scale comes from adding nodes, the
// paper's unit of scale (Section 2, "Scalability").
#pragma once

#include <cstdint>
#include <functional>

#include "common/clock.h"
#include "net/message.h"

namespace khz::net {

/// Wire-level counters for one transport endpoint (observability for tests
/// and benches). All values are cumulative since
/// start() except `queued_bytes`, a point-in-time gauge of the outbound
/// backlog across all peers.
struct TransportStats {
  std::uint64_t messages_sent = 0;      // frames fully handed to the kernel
  std::uint64_t messages_received = 0;  // frames decoded and dispatched
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t frames_dropped = 0;   // queue overflow or undecodable frame
  std::uint64_t connects = 0;         // successful outbound connections
  std::uint64_t reconnects = 0;       // connects to a peer we had lost
  std::uint64_t connect_failures = 0; // failed outbound connection attempts
  std::uint64_t queued_bytes = 0;     // current outbound backlog (gauge)
  std::uint64_t peak_queued_bytes = 0;
};

class Transport {
 public:
  using Handler = std::function<void(Message)>;

  virtual ~Transport() = default;

  /// The node this endpoint belongs to.
  [[nodiscard]] virtual NodeId local() const = 0;

  /// Sends asynchronously; best-effort (messages may be lost or the peer
  /// may be down — Khazana's retry machinery owns reliability).
  virtual void send(Message msg) = 0;

  /// Installs the inbound-message callback. Must be set before any
  /// messages arrive.
  virtual void set_handler(Handler handler) = 0;

  /// Runs `fn` in this node's execution context after `delay` microseconds.
  /// Returns a timer id usable with cancel().
  virtual std::uint64_t schedule(Micros delay, std::function<void()> fn) = 0;

  /// Cancels a pending timer; no-op if it already fired.
  virtual void cancel(std::uint64_t timer_id) = 0;

  /// Time source consistent with schedule() delays.
  [[nodiscard]] virtual const Clock& clock() const = 0;

  /// Runs `fn` in this node's execution context as soon as possible, as a
  /// fresh job (never inline). Defaults to a zero-delay timer.
  virtual void post(std::function<void()> fn) {
    (void)schedule(0, std::move(fn));
  }
};

}  // namespace khz::net
