// Real-socket transport.
//
// TcpBus hosts one listening socket per node (localhost, distinct ports) and
// lazily opened client connections between them, with 4-byte-length-prefixed
// Message frames. Each endpoint owns two threads:
//
//  * an executor thread on which ALL of its callbacks run: decoded inbound
//    frames, posted jobs and timers. Callbacks are serialized, preserving
//    the single-writer execution model that node logic assumes under the
//    simulator. The executor alternates between due timers and queued jobs,
//    so neither a stream of inbound frames nor a zero-delay timer loop can
//    starve the other; and
//  * an I/O thread multiplexing every socket — listener, inbound and
//    outbound — through one epoll instance. It only decodes frames and
//    queues them for the executor; it never touches node state. Outbound
//    traffic goes through per-peer non-blocking write queues, so a slow or
//    dead peer can never stall sends to healthy peers, and lost connections
//    are re-established with exponential backoff while frames wait
//    (bounded) in the queue.
//
// This is the "real system" path: the integration tests run a full Khazana
// cluster over actual sockets to show the node logic is transport-agnostic.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "net/transport.h"
#include "obs/metrics.h"

namespace khz::net {

class TcpBus;

class TcpTransport final : public Transport {
 public:
  /// Backoff policy for outbound reconnects: first retry is immediate,
  /// then delays double from kBackoffBase up to kBackoffMax.
  static constexpr Micros kBackoffBase = 10'000;     // 10 ms
  static constexpr Micros kBackoffMax = 1'000'000;   // 1 s
  /// Per-peer outbound backlog cap; frames beyond it are dropped (and
  /// counted) rather than growing memory without bound.
  static constexpr std::size_t kMaxPeerQueueBytes = 64u << 20;

  TcpTransport(TcpBus& bus, NodeId id, std::uint16_t port);
  ~TcpTransport() override;

  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  [[nodiscard]] NodeId local() const override { return id_; }
  void send(Message msg) override;
  void set_handler(Handler handler) override;
  std::uint64_t schedule(Micros delay, std::function<void()> fn) override;
  /// A direct enqueue on the executor's work queue (not a zero-delay
  /// timer): cheaper, and FIFO with inbound messages already queued.
  void post(std::function<void()> fn) override;
  void cancel(std::uint64_t timer_id) override;
  [[nodiscard]] const Clock& clock() const override;

  /// Runs `fn` on the executor thread and returns once it completed. Used
  /// by synchronous client wrappers to call into node logic safely. Runs
  /// inline when already called from the executor thread (re-entrant
  /// client wrappers would otherwise self-deadlock).
  void run_on_executor(std::function<void()> fn);

  /// Snapshot of the wire-level counters (thread-safe).
  [[nodiscard]] TransportStats stats() const;

  /// Transport-level instruments; currently the tcp.send_queue_us
  /// histogram tracking how long frames sat in the per-peer write queues
  /// (kernel-refused or disconnected-peer residency).
  [[nodiscard]] obs::MetricsRegistry& metrics() { return metrics_; }

  /// Timer-heap entries currently held, including cancelled tombstones
  /// awaiting compaction. Observability for leak tests.
  [[nodiscard]] std::size_t pending_timers() const;

  void start();
  void stop();

 private:
  struct Timer {
    Micros fire_at;
    std::uint64_t id;
    std::function<void()> fn;
    bool operator<(const Timer& o) const { return fire_at > o.fire_at; }
  };

  /// One framed buffer awaiting transmission, stamped with its enqueue
  /// time so completion can record queue residency.
  struct Frame {
    Bytes data;
    Micros enqueued_at = 0;
  };

  /// Outbound connection to one peer. The fd is non-blocking; frames that
  /// the kernel won't take immediately wait in `queue` and drain on
  /// EPOLLOUT from the I/O thread.
  struct PeerConn {
    int fd = -1;
    bool connecting = false;     // non-blocking connect() in flight
    bool was_connected = false;  // a later connect counts as a reconnect
    std::uint32_t armed = 0;     // epoll events currently registered
    std::deque<Frame> queue;     // framed (length-prefixed) buffers
    std::size_t queue_bytes = 0; // unsent bytes across `queue`
    std::size_t front_off = 0;   // bytes of queue.front() already written
    int backoff_exp = 0;         // consecutive failed connection attempts
    Micros next_attempt = 0;     // earliest time for the next connect
  };

  /// Inbound connection accepted from a peer; bytes accumulate in `buf`
  /// until whole frames can be peeled off.
  struct InConn {
    Bytes buf;
  };

  void executor_loop();
  void io_loop();
  void accept_ready();
  void inbound_ready(int fd, std::uint32_t events);
  void peer_event(NodeId peer, std::uint32_t events);
  void start_connect(NodeId peer);            // io_mu_ held
  void finish_connect(NodeId peer);           // io_mu_ held
  void connection_lost(NodeId peer);          // io_mu_ held
  bool flush_queue(PeerConn& p);              // io_mu_ held
  void update_peer_events(PeerConn& p);       // io_mu_ held
  void attempt_due_connects(Micros now);      // io_mu_ held
  [[nodiscard]] int backoff_timeout_ms();     // locks io_mu_
  void close_inbound(int fd);                 // io_mu_ held
  void wake_io();
  void dispatch(Message msg);                 // executor; locks handler_mu_

  TcpBus& bus_;
  NodeId id_;
  std::uint16_t port_;

  // The inbound handler may be installed after start() (the executor is
  // already dispatching frames by then), so both the slot and the
  // not-yet-handled backlog live under their own mutex. Frames that arrive
  // before set_handler() are parked, then replayed through the executor.
  mutable std::mutex handler_mu_;
  Handler handler_;                // guarded by handler_mu_
  std::vector<Message> pre_handler_backlog_;  // guarded by handler_mu_

  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  // eventfd: send()/stop() nudge the I/O thread
  std::atomic<bool> running_{false};

  // Executor state: serialized jobs plus a timer heap, drained by exec_.
  // Lock order: io_mu_ before exec_mu_, never the reverse.
  mutable std::mutex exec_mu_;
  std::condition_variable exec_cv_;
  std::deque<std::function<void()>> work_;  // guarded by exec_mu_
  std::vector<Timer> timers_;     // heap ordered by fire_at; exec_mu_
  std::size_t tombstones_ = 0;    // cancelled entries still in timers_
  std::uint64_t next_timer_id_ = 1;
  std::thread exec_;

  // Socket state, shared between send() callers and the I/O thread.
  mutable std::mutex io_mu_;
  std::map<NodeId, PeerConn> peers_;
  std::map<int, NodeId> out_by_fd_;
  std::map<int, InConn> in_conns_;

  // Counters. Plain uint64 guarded by io_mu_ (all writers hold it).
  TransportStats counters_;

  // Latency instruments (histogram recording is internally wait-free).
  obs::MetricsRegistry metrics_;
  obs::Histogram* send_queue_us_;
  obs::Histogram* writev_frames_;  // frames per sendmsg() gather call

  std::thread io_;
};

/// A set of TcpTransport endpoints that know each other's ports.
class TcpBus {
 public:
  explicit TcpBus(std::uint16_t base_port) : base_port_(base_port) {}
  ~TcpBus();

  TcpBus(const TcpBus&) = delete;
  TcpBus& operator=(const TcpBus&) = delete;

  /// Creates and starts the endpoint for `id` on base_port + id.
  TcpTransport& add_node(NodeId id);
  /// Stops and destroys the endpoint for `id` (simulates a process kill);
  /// the same id can later be re-added to simulate a restart.
  void remove_node(NodeId id);
  void stop_all();

  [[nodiscard]] std::uint16_t port_of(NodeId id) const {
    return static_cast<std::uint16_t>(base_port_ + id);
  }

 private:
  std::uint16_t base_port_;
  std::map<NodeId, std::unique_ptr<TcpTransport>> endpoints_;
};

}  // namespace khz::net
