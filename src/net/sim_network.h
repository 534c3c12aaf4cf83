// Deterministic discrete-event network simulator.
//
// Substitute for the paper's live LAN/WAN testbed (see DESIGN.md §2): a
// virtual-time event queue delivering messages between registered endpoints
// with configurable per-link latency, bandwidth, jitter, loss, partitions
// and node crashes. All latency numbers reported by the benchmark harness
// are virtual time accumulated here, so results are exactly reproducible.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/clock.h"
#include "common/rng.h"
#include "net/transport.h"

namespace khz::net {

/// Latency/bandwidth model of one direction of one link.
struct LinkProfile {
  Micros latency = 100;        // propagation delay (default: 0.1 ms LAN)
  Micros jitter = 0;           // uniform extra delay in [0, jitter]
  double bytes_per_micro = 0;  // 0 = infinite bandwidth
  double drop_probability = 0;
  /// Fixed per-message cost (syscall + framing + scheduling), charged on
  /// the sender's side of the link before transmission starts. This is
  /// what makes one N-page batch cheaper than N single-page messages.
  Micros per_message = 0;
  /// Probability a delivered message arrives twice (models retransmit
  /// races); duplicates arrive after an extra jittered delay.
  double dup_probability = 0;

  static LinkProfile lan() { return {.latency = 100, .jitter = 10}; }
  static LinkProfile wan() {
    // ~40 ms one-way, ~1.5 MB/s, ~1 ms fixed per-message overhead: a
    // late-90s wide-area path.
    return {.latency = 40'000,
            .jitter = 4'000,
            .bytes_per_micro = 1.5,
            .per_message = 1'000};
  }
  static LinkProfile local_loop() { return {.latency = 5, .jitter = 0}; }
};

/// Aggregate traffic statistics, also broken down by message type.
struct NetStats {
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t bytes_sent = 0;
  std::map<MsgType, std::uint64_t> per_type;

  void clear() { *this = NetStats{}; }
};

class SimNetwork;

/// One node's endpoint on the simulator.
class SimTransport final : public Transport {
 public:
  SimTransport(SimNetwork& net, NodeId id) : net_(net), id_(id) {}

  [[nodiscard]] NodeId local() const override { return id_; }
  void send(Message msg) override;
  void set_handler(Handler handler) override { handler_ = std::move(handler); }
  std::uint64_t schedule(Micros delay, std::function<void()> fn) override;
  void cancel(std::uint64_t timer_id) override;
  [[nodiscard]] const Clock& clock() const override;

 private:
  friend class SimNetwork;
  SimNetwork& net_;
  NodeId id_;
  Handler handler_;
};

class SimNetwork {
 public:
  explicit SimNetwork(std::uint64_t seed = 1);
  ~SimNetwork();

  SimNetwork(const SimNetwork&) = delete;
  SimNetwork& operator=(const SimNetwork&) = delete;

  /// Creates the endpoint for `id`. Each id may be registered once.
  SimTransport& add_node(NodeId id);

  // --- topology control -----------------------------------------------
  /// Default profile for links with no explicit override.
  void set_default_link(LinkProfile profile) { default_link_ = profile; }
  /// Directed override for src -> dst.
  void set_link(NodeId src, NodeId dst, LinkProfile profile);
  /// Symmetric override.
  void set_link_pair(NodeId a, NodeId b, LinkProfile profile);

  /// Crash / restart a node. Messages to or from a crashed node vanish;
  /// its pending timers are suppressed while down.
  void set_node_up(NodeId id, bool up);
  [[nodiscard]] bool node_up(NodeId id) const;

  /// Partition management: nodes in different partition groups cannot
  /// exchange messages. clear_partitions() restores full connectivity.
  void partition(const std::set<NodeId>& group_a,
                 const std::set<NodeId>& group_b);
  void clear_partitions();

  // --- execution --------------------------------------------------------
  /// Runs events until the queue is empty or `limit` events processed.
  /// Returns the number of events processed.
  std::size_t run(std::size_t limit = SIZE_MAX);
  /// Runs events with timestamp <= now + duration.
  std::size_t run_for(Micros duration);
  /// Runs until `done` returns true (checked after each event) or the
  /// queue empties. Returns true if `done` was satisfied.
  bool run_until(const std::function<bool()>& done,
                 std::size_t limit = SIZE_MAX);

  [[nodiscard]] Micros now() const { return clock_.now(); }
  [[nodiscard]] const Clock& clock() const { return clock_; }
  [[nodiscard]] const NetStats& stats() const { return stats_; }
  NetStats& stats() { return stats_; }

  [[nodiscard]] std::vector<NodeId> node_ids() const;

  /// Existing endpoint for `id`, or nullptr. Used to re-attach a restarted
  /// node to its persistent network identity.
  [[nodiscard]] SimTransport* endpoint(NodeId id);

  /// Optional tap observing every delivered message (protocol traces).
  using Tap = std::function<void(Micros, const Message&)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// Schedules a callback owned by the simulation itself rather than any
  /// node: it fires even while nodes are down and survives crash-epoch
  /// bumps. Fault-injection scripts (scheduled kills, reboots, partitions)
  /// are built on this — a node-owned timer would be suppressed by the
  /// very crash it is supposed to orchestrate. Cancellable via the usual
  /// timer id.
  std::uint64_t schedule_global(Micros delay, std::function<void()> fn);

 private:
  friend class SimTransport;

  struct Event {
    Micros at;
    std::uint64_t seq;  // FIFO tie-break for determinism
    NodeId node;        // execution context
    Message msg;        // valid when is_timer == false
    std::function<void()> fn;
    bool is_timer = false;
    std::uint64_t timer_id = 0;
    int epoch = 0;  // node incarnation the timer belongs to
    /// Simulation-owned timer: exempt from node-down / crash-epoch
    /// suppression (fault-injection scripts).
    bool global = false;
  };
  struct EventOrder {
    bool operator()(const Event& a, const Event& b) const {
      return a.at != b.at ? a.at > b.at : a.seq > b.seq;
    }
  };

  void submit(Message msg);
  std::uint64_t schedule_timer(NodeId node, Micros delay,
                               std::function<void()> fn);
  [[nodiscard]] const LinkProfile& link(NodeId src, NodeId dst) const;
  [[nodiscard]] bool partitioned(NodeId a, NodeId b) const;
  void dispatch(Event& ev);

  ManualClock clock_;
  Rng rng_;
  std::priority_queue<Event, std::vector<Event>, EventOrder> queue_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t next_timer_id_ = 1;
  std::set<std::uint64_t> cancelled_timers_;

  std::unordered_map<NodeId, std::unique_ptr<SimTransport>> endpoints_;
  std::unordered_map<NodeId, bool> up_;
  // Bumped on every crash: timers scheduled by an earlier incarnation of a
  // node must never fire into a later one (their callbacks capture state
  // that died with the crash).
  std::unordered_map<NodeId, int> crash_epoch_;
  std::map<std::pair<NodeId, NodeId>, LinkProfile> links_;
  LinkProfile default_link_ = LinkProfile::lan();
  std::unordered_map<NodeId, int> partition_group_;  // absent = group 0
  int next_partition_group_ = 1;

  /// Per-(src,dst) FIFO: the messaging layer is connection-oriented (the
  /// TCP transport gives this for free), so later sends never overtake
  /// earlier ones on the same directed pair even under jitter.
  std::map<std::pair<NodeId, NodeId>, Micros> last_delivery_at_;
  /// Per-(src,dst) transmit serialization: a finite-bandwidth link is
  /// busy for per_message + size/bandwidth per send, so back-to-back
  /// messages queue behind each other instead of overlapping for free.
  std::map<std::pair<NodeId, NodeId>, Micros> link_busy_until_;

  NetStats stats_;
  Tap tap_;
};

}  // namespace khz::net
