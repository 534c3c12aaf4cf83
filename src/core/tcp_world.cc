#include "core/tcp_world.h"

#include <algorithm>

namespace khz::core {

TcpWorld::TcpWorld(TcpWorldOptions opts) : bus_(opts.base_port) {
  transports_.reserve(opts.nodes);
  nodes_.reserve(opts.nodes);
  for (std::size_t i = 0; i < opts.nodes; ++i) {
    const auto id = static_cast<NodeId>(i);
    transports_.push_back(&bus_.add_node(id));
  }
  for (std::size_t i = 0; i < opts.nodes; ++i) {
    const auto id = static_cast<NodeId>(i);
    NodeConfig cfg;
    cfg.id = id;
    cfg.genesis = 0;
    for (std::size_t p = 0; p < opts.nodes; ++p) {
      cfg.peers.push_back(static_cast<NodeId>(p));
    }
    cfg.ram_pages = opts.ram_pages;
    if (!opts.disk_root.empty()) {
      cfg.disk_dir = opts.disk_root / ("node" + std::to_string(id));
    }
    cfg.rpc_timeout = opts.rpc_timeout;
    cfg.max_retries = opts.max_retries;
    cfg.ping_interval = opts.ping_interval;
    cfg.admission_client_queue = opts.admission_client_queue;
    cfg.admission_protocol_queue = opts.admission_protocol_queue;
    cfg.admission_replication_queue = opts.admission_replication_queue;
    cfg.admission_service_us = opts.admission_service_us;
    cfg.sync_metadata = opts.sync_metadata;
    cfg.group_commit_us = opts.group_commit_us;
    cfg.checkpoint_interval = opts.checkpoint_interval;
    cfg.slow_op_threshold_us = opts.slow_op_threshold_us;
    cfg.slow_op_deadline_fraction = opts.slow_op_deadline_fraction;
    cfg.flight_recorder_capacity = opts.flight_recorder_capacity;
    cfg.stats_sample_interval = opts.stats_sample_interval;
    cfg.stats_series_capacity = opts.stats_series_capacity;
    cfg.seed = opts.seed;
    nodes_.push_back(std::make_unique<Node>(std::move(cfg), *transports_[i]));
  }
  for (std::size_t i = 0; i < opts.nodes; ++i) {
    const auto id = static_cast<NodeId>(i);
    transports_[i]->run_on_executor([&, id] { nodes_[id]->start(); });
  }
}

net::TransportStats TcpWorld::total_transport_stats() const {
  net::TransportStats sum;
  for (const auto* t : transports_) {
    const net::TransportStats s = t->stats();
    sum.messages_sent += s.messages_sent;
    sum.messages_received += s.messages_received;
    sum.bytes_sent += s.bytes_sent;
    sum.bytes_received += s.bytes_received;
    sum.frames_dropped += s.frames_dropped;
    sum.connects += s.connects;
    sum.reconnects += s.reconnects;
    sum.connect_failures += s.connect_failures;
    sum.queued_bytes += s.queued_bytes;
    sum.peak_queued_bytes =
        std::max(sum.peak_queued_bytes, s.peak_queued_bytes);
  }
  return sum;
}

std::string TcpWorld::trace_json() {
  std::vector<obs::Span> spans;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    // The tracer ring is only touched from the node's executor thread, so
    // snapshot it there rather than racing with in-flight operations.
    std::vector<obs::Span> local;
    transports_[i]->run_on_executor(
        [&] { local = nodes_[i]->tracer().finished_spans(); });
    spans.insert(spans.end(), std::make_move_iterator(local.begin()),
                 std::make_move_iterator(local.end()));
  }
  return obs::chrome_trace_json(spans);
}

void TcpWorld::mirror_wire_counters(NodeId id) {
  auto& reg = node(id).metrics();
  const net::TransportStats s = transports_.at(id)->stats();
  reg.counter("tcp.messages_sent").set(s.messages_sent);
  reg.counter("tcp.messages_received").set(s.messages_received);
  reg.counter("tcp.bytes_sent").set(s.bytes_sent);
  reg.counter("tcp.bytes_received").set(s.bytes_received);
  reg.counter("tcp.frames_dropped").set(s.frames_dropped);
  reg.counter("tcp.connects").set(s.connects);
  reg.counter("tcp.reconnects").set(s.reconnects);
  reg.counter("tcp.connect_failures").set(s.connect_failures);
  reg.counter("tcp.peak_queued_bytes").set(s.peak_queued_bytes);
}

obs::MetricsSnapshot TcpWorld::merged_snapshot(NodeId id) {
  mirror_wire_counters(id);
  obs::MetricsSnapshot snap = node(id).metrics().snapshot();
  const obs::MetricsSnapshot wire = transports_.at(id)->metrics().snapshot();
  for (const auto& [name, value] : wire.counters) snap.counters[name] = value;
  for (const auto& [name, hist] : wire.histograms) {
    snap.histograms[name] = hist;
  }
  return snap;
}

std::string TcpWorld::metrics_text(NodeId id) {
  return merged_snapshot(id).to_text();
}

std::string TcpWorld::metrics_json(NodeId id) {
  return merged_snapshot(id).to_json();
}

Result<Node::RemoteStats> TcpWorld::scrape(NodeId via, NodeId peer,
                                           std::uint8_t flags) {
  struct State {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<Result<Node::RemoteStats>> result;
  };
  auto state = std::make_shared<State>();
  transports_.at(via)->run_on_executor([&] {
    nodes_.at(via)->scrape_stats(
        peer, flags, [state](Result<Node::RemoteStats> r) {
          std::lock_guard lk(state->mu);
          state->result = std::move(r);
          state->cv.notify_one();
        });
  });
  std::unique_lock lk(state->mu);
  state->cv.wait(lk, [&] { return state->result.has_value(); });
  return std::move(*state->result);
}

std::string TcpWorld::cluster_metrics_json() {
  // Mirror every endpoint's wire counters first so the over-the-wire
  // snapshots carry tcp.*.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    mirror_wire_counters(static_cast<NodeId>(i));
  }
  std::vector<obs::NodeSnapshot> snaps;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    const auto id = static_cast<NodeId>(i);
    auto rs = scrape(/*via=*/0, id, 0);
    if (!rs.ok()) continue;
    obs::MetricsSnapshot snap = std::move(rs.value().snapshot);
    // Fold in the transport's own instruments (tcp.send_queue_us etc.),
    // which live in the endpoint's registry, not the node's, so the
    // per-node objects match metrics_json(id).
    snap.merge(transports_.at(id)->metrics().snapshot());
    snaps.emplace_back(id, std::move(snap));
  }
  return '{' + obs::rollup_json_members(snaps) + '}';
}

TcpWorld::~TcpWorld() {
  // Cancel every node timer (RPC engine, failure detector) on the node's
  // own executor while its transport is still alive — stop_all() destroys
  // the endpoints, and a later cancel would touch a dead transport.
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    transports_[i]->run_on_executor([&, i] { nodes_[i]->stop(); });
  }
  // Then stop transports so no executor callback touches a dead Node.
  bus_.stop_all();
  nodes_.clear();
}

}  // namespace khz::core
