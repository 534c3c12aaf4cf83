#include "net/sim_network.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"

namespace khz::net {

void SimTransport::send(Message msg) {
  msg.src = id_;
  net_.submit(std::move(msg));
}

std::uint64_t SimTransport::schedule(Micros delay, std::function<void()> fn) {
  return net_.schedule_timer(id_, delay, std::move(fn));
}

void SimTransport::cancel(std::uint64_t timer_id) {
  net_.cancelled_timers_.insert(timer_id);
}

const Clock& SimTransport::clock() const { return net_.clock(); }

SimNetwork::SimNetwork(std::uint64_t seed) : rng_(seed) {}
SimNetwork::~SimNetwork() = default;

SimTransport& SimNetwork::add_node(NodeId id) {
  assert(!endpoints_.contains(id));
  auto ep = std::make_unique<SimTransport>(*this, id);
  auto& ref = *ep;
  endpoints_.emplace(id, std::move(ep));
  up_[id] = true;
  return ref;
}

void SimNetwork::set_link(NodeId src, NodeId dst, LinkProfile profile) {
  links_[{src, dst}] = profile;
}

void SimNetwork::set_link_pair(NodeId a, NodeId b, LinkProfile profile) {
  set_link(a, b, profile);
  set_link(b, a, profile);
}

void SimNetwork::set_node_up(NodeId id, bool up) {
  // A crash invalidates every timer the dying incarnation scheduled: their
  // callbacks capture objects that are destroyed with the node, so letting
  // them fire after a crash+restart would touch freed memory.
  if (!up && node_up(id)) ++crash_epoch_[id];
  up_[id] = up;
}

bool SimNetwork::node_up(NodeId id) const {
  auto it = up_.find(id);
  return it != up_.end() && it->second;
}

void SimNetwork::partition(const std::set<NodeId>& group_a,
                           const std::set<NodeId>& group_b) {
  // Assign two fresh group numbers; nodes not mentioned keep their group.
  const int ga = next_partition_group_++;
  const int gb = next_partition_group_++;
  for (NodeId n : group_a) partition_group_[n] = ga;
  for (NodeId n : group_b) partition_group_[n] = gb;
}

void SimNetwork::clear_partitions() { partition_group_.clear(); }

bool SimNetwork::partitioned(NodeId a, NodeId b) const {
  auto ia = partition_group_.find(a);
  auto ib = partition_group_.find(b);
  const int ga = ia == partition_group_.end() ? 0 : ia->second;
  const int gb = ib == partition_group_.end() ? 0 : ib->second;
  return ga != gb;
}

const LinkProfile& SimNetwork::link(NodeId src, NodeId dst) const {
  auto it = links_.find({src, dst});
  return it != links_.end() ? it->second : default_link_;
}

void SimNetwork::submit(Message msg) {
  stats_.messages_sent++;
  stats_.bytes_sent += msg.wire_size();
  stats_.per_type[msg.type]++;

  if (!node_up(msg.src) || !node_up(msg.dst) ||
      partitioned(msg.src, msg.dst)) {
    stats_.messages_dropped++;
    return;
  }
  const LinkProfile& lp = link(msg.src, msg.dst);
  if (lp.drop_probability > 0 && rng_.chance(lp.drop_probability)) {
    stats_.messages_dropped++;
    return;
  }
  // Transmission cost occupies the sender's side of the link: a fixed
  // per-message overhead plus the serialization time of the bytes. While
  // one message transmits, the next queues behind it (busy-until), which
  // is what rewards batching N pages into one message.
  Micros xmit = lp.per_message;
  if (lp.bytes_per_micro > 0) {
    xmit += static_cast<Micros>(static_cast<double>(msg.wire_size()) /
                                lp.bytes_per_micro);
  }
  Micros& busy = link_busy_until_[{msg.src, msg.dst}];
  const Micros start = std::max(clock_.now(), busy);
  busy = start + xmit;

  Micros delay = lp.latency;
  if (lp.jitter > 0) delay += rng_.between(0, lp.jitter);
  Event ev;
  ev.at = busy + delay;
  // FIFO per directed pair: a message never overtakes an earlier one on
  // the same connection.
  Micros& last = last_delivery_at_[{msg.src, msg.dst}];
  if (ev.at < last) ev.at = last;
  last = ev.at;
  ev.seq = next_seq_++;
  ev.node = msg.dst;

  if (lp.dup_probability > 0 && rng_.chance(lp.dup_probability)) {
    stats_.messages_duplicated++;
    Event dup;
    dup.at = ev.at + lp.latency + (lp.jitter > 0 ? rng_.between(0, lp.jitter)
                                                 : Micros{0});
    last = std::max(last, dup.at);
    dup.seq = next_seq_++;
    dup.node = msg.dst;
    dup.msg = msg;  // copy before the original is moved below
    queue_.push(std::move(dup));
  }

  ev.msg = std::move(msg);
  queue_.push(std::move(ev));
}

std::uint64_t SimNetwork::schedule_timer(NodeId node, Micros delay,
                                         std::function<void()> fn) {
  Event ev;
  ev.at = clock_.now() + delay;
  ev.seq = next_seq_++;
  ev.node = node;
  ev.fn = std::move(fn);
  ev.is_timer = true;
  ev.timer_id = next_timer_id_++;
  auto epoch_it = crash_epoch_.find(node);
  ev.epoch = epoch_it == crash_epoch_.end() ? 0 : epoch_it->second;
  const std::uint64_t id = ev.timer_id;
  queue_.push(std::move(ev));
  return id;
}

std::uint64_t SimNetwork::schedule_global(Micros delay,
                                          std::function<void()> fn) {
  Event ev;
  ev.at = clock_.now() + delay;
  ev.seq = next_seq_++;
  ev.fn = std::move(fn);
  ev.is_timer = true;
  ev.global = true;
  ev.timer_id = next_timer_id_++;
  const std::uint64_t id = ev.timer_id;
  queue_.push(std::move(ev));
  return id;
}

void SimNetwork::dispatch(Event& ev) {
  clock_.advance_to(ev.at);
  if (ev.is_timer) {
    if (cancelled_timers_.erase(ev.timer_id) > 0) return;
    // A crashed node's timers are suppressed, matching the loss of its
    // volatile state; they do not fire later on restart either — the
    // epoch check catches timers from a pre-crash incarnation even when
    // the node is already back up. Simulation-owned (global) timers are
    // exempt: fault scripts must fire regardless of node state.
    if (!ev.global) {
      if (!node_up(ev.node)) return;
      auto epoch_it = crash_epoch_.find(ev.node);
      if (ev.epoch != (epoch_it == crash_epoch_.end() ? 0 : epoch_it->second))
        return;
    }
    ev.fn();
    return;
  }
  // Delivery-time check: the destination may have crashed, or a partition
  // may have formed, while the message was in flight.
  if (!node_up(ev.node) || partitioned(ev.msg.src, ev.msg.dst)) {
    stats_.messages_dropped++;
    return;
  }
  auto it = endpoints_.find(ev.node);
  if (it == endpoints_.end() || !it->second->handler_) {
    stats_.messages_dropped++;
    return;
  }
  stats_.messages_delivered++;
  if (tap_) tap_(ev.at, ev.msg);
  it->second->handler_(std::move(ev.msg));
}

std::size_t SimNetwork::run(std::size_t limit) {
  std::size_t n = 0;
  while (!queue_.empty() && n < limit) {
    Event ev = queue_.top();
    queue_.pop();
    dispatch(ev);
    ++n;
  }
  return n;
}

std::size_t SimNetwork::run_for(Micros duration) {
  const Micros deadline = clock_.now() + duration;
  std::size_t n = 0;
  while (!queue_.empty() && queue_.top().at <= deadline) {
    Event ev = queue_.top();
    queue_.pop();
    dispatch(ev);
    ++n;
  }
  clock_.advance_to(deadline);
  return n;
}

bool SimNetwork::run_until(const std::function<bool()>& done,
                           std::size_t limit) {
  if (done()) return true;
  std::size_t n = 0;
  while (!queue_.empty() && n < limit) {
    Event ev = queue_.top();
    queue_.pop();
    dispatch(ev);
    ++n;
    if (done()) return true;
  }
  return done();
}

SimTransport* SimNetwork::endpoint(NodeId id) {
  auto it = endpoints_.find(id);
  return it == endpoints_.end() ? nullptr : it->second.get();
}

std::vector<NodeId> SimNetwork::node_ids() const {
  std::vector<NodeId> ids;
  ids.reserve(endpoints_.size());
  for (const auto& [id, _] : endpoints_) ids.push_back(id);
  return ids;
}

}  // namespace khz::net
