// TcpWorld: a Khazana deployment over real localhost TCP sockets.
//
// The same Node code as SimWorld, but each node runs on its own executor
// thread and messages travel through the kernel's TCP stack. TcpClient
// provides the blocking SyncClient surface by posting each operation onto
// the node's executor and blocking once for its completion (get/put and
// get_many/put_many fold lock + access + unlock into that one visit). Used
// by the integration tests to demonstrate that the node logic is genuinely
// transport-agnostic (paper, Section 5: "only the messaging layer is
// system dependent").
#pragma once

#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "core/client.h"
#include "core/node.h"
#include "net/tcp_transport.h"

namespace khz::core {

struct TcpWorldOptions {
  std::size_t nodes = 3;
  std::uint16_t base_port = 39000;
  std::size_t ram_pages = 4096;
  std::filesystem::path disk_root;
  Micros rpc_timeout = 500'000;
  int max_retries = 3;
  Micros ping_interval = 0;
  /// Admission-control knobs, forwarded to every NodeConfig (see
  /// docs/overload.md). Defaults keep admission off.
  std::size_t admission_client_queue = 0;
  std::size_t admission_protocol_queue = 0;
  std::size_t admission_replication_queue = 0;
  Micros admission_service_us = 0;
  /// fdatasync the metadata journal on commit (power-loss durability).
  bool sync_metadata = false;
  /// Segment-store data plane knobs, forwarded to every NodeConfig
  /// (docs/storage.md).
  Micros group_commit_us = 0;
  Micros checkpoint_interval = 0;
  /// Telemetry knobs, forwarded to every NodeConfig (see
  /// docs/observability.md).
  Micros slow_op_threshold_us = 0;
  double slow_op_deadline_fraction = 0.0;
  std::size_t flight_recorder_capacity = 32;
  Micros stats_sample_interval = 0;
  std::size_t stats_series_capacity = 64;
  /// Read by nothing: perfbench/khzbench.cc assigns it, and that
  /// assignment is its only reason to exist. Every node runs one executor.
  unsigned lanes = 1;
  std::uint64_t seed = 1;
};

class TcpWorld {
 public:
  explicit TcpWorld(TcpWorldOptions opts = {});
  ~TcpWorld();

  TcpWorld(const TcpWorld&) = delete;
  TcpWorld& operator=(const TcpWorld&) = delete;

  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] net::TcpTransport& transport(NodeId id) {
    return *transports_.at(id);
  }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Wire-level counters of one node's endpoint, the transport analogue of
  /// the node's metrics registry.
  [[nodiscard]] net::TransportStats transport_stats(NodeId id) const {
    return transports_.at(id)->stats();
  }
  /// Sum of transport_stats() across the whole deployment.
  [[nodiscard]] net::TransportStats total_transport_stats() const;

  // --- observability ----------------------------------------------------
  /// Chrome trace-event JSON of every node's finished spans, merged.
  /// Each node's span ring is read on its own executor thread.
  [[nodiscard]] std::string trace_json();
  /// One node's metric registry with its endpoint's wire counters
  /// mirrored in under tcp.* and the transport's own instruments
  /// (tcp.send_queue_us) merged into the dump.
  [[nodiscard]] std::string metrics_text(NodeId id);
  [[nodiscard]] std::string metrics_json(NodeId id);

  /// Blocking remote-stats scrape: node `via` fetches `peer`'s registry
  /// (plus the sections in `flags`) over real TCP. Issued on `via`'s
  /// executor; the calling thread blocks until the response arrives.
  Result<Node::RemoteStats> scrape(NodeId via, NodeId peer,
                                   std::uint8_t flags = 0);

  /// Scrapes every node over the wire and emits one cluster-wide rollup
  /// (counters/gauges summed, histograms merged bucket-wise) plus the
  /// per-node breakdown: {"cluster":{...},"nodes":{"0":{...},...}}. Each
  /// endpoint's tcp.* wire counters are mirrored into its node registry
  /// first, and the transport's own instruments are folded into both
  /// sides, so the per-node objects match metrics_json(id).
  [[nodiscard]] std::string cluster_metrics_json();

 private:
  /// Mirrors the endpoint's TransportStats into the node registry's tcp.*
  /// counters (Counter::set is atomic — safe from any thread).
  void mirror_wire_counters(NodeId id);
  [[nodiscard]] obs::MetricsSnapshot merged_snapshot(NodeId id);

  net::TcpBus bus_;
  std::vector<net::TcpTransport*> transports_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// Blocking SyncClient over a TcpWorld node. Operations are posted to the
/// node's executor thread and the calling thread blocks once, until the
/// completion callback fires. get/put and get_many/put_many make a single
/// such visit: the locks, the accesses and the unlocks all run on the node
/// (Node::get_many/put_many), so the locks are held only across the
/// accesses. Not callable from the node's own
/// executor thread (the posted job could never run).
class TcpClient final : public SyncClient {
 public:
  TcpClient(TcpWorld& world, NodeId node) : world_(world), node_(node) {}

  Result<GlobalAddress> reserve(std::uint64_t size,
                                const RegionAttrs& attrs) override {
    return wait<Result<GlobalAddress>>([size, attrs](Node& n, auto done) {
      n.reserve(size, attrs, std::move(done));
    });
  }
  Status unreserve(const GlobalAddress& base) override {
    return wait<Status>([base](Node& n, auto done) {
      n.unreserve(base, std::move(done));
    });
  }
  Status allocate(const AddressRange& range) override {
    return wait<Status>([range](Node& n, auto done) {
      n.allocate(range, std::move(done));
    });
  }
  Status deallocate(const AddressRange& range) override {
    return wait<Status>([range](Node& n, auto done) {
      n.deallocate(range, std::move(done));
    });
  }
  Result<consistency::LockContext> lock(
      const AddressRange& range, consistency::LockMode mode) override {
    return wait<Result<consistency::LockContext>>(
        [range, mode](Node& n, auto done) {
          n.lock(range, mode, std::move(done));
        });
  }
  void unlock(const consistency::LockContext& ctx) override {
    world_.transport(node_).run_on_executor([&] { node().unlock(ctx); });
  }
  Result<Bytes> read(const consistency::LockContext& ctx,
                     std::uint64_t offset, std::uint64_t len) override {
    std::optional<Result<Bytes>> out;
    world_.transport(node_).run_on_executor(
        [&] { out = node().read(ctx, offset, len); });
    return std::move(out).value();
  }
  Status write(const consistency::LockContext& ctx, std::uint64_t offset,
               std::span<const std::uint8_t> data) override {
    std::optional<Status> out;
    world_.transport(node_).run_on_executor(
        [&] { out = node().write(ctx, offset, data); });
    return out.value();
  }
  Status put(const AddressRange& range,
             std::span<const std::uint8_t> data) override {
    return wait<Status>([range, bytes = Bytes(data.begin(), data.end())](
                            Node& n, auto done) mutable {
      n.put(range, std::move(bytes), std::move(done));
    });
  }
  Result<Bytes> get(const AddressRange& range) override {
    return wait<Result<Bytes>>([range](Node& n, auto done) {
      n.get(range, std::move(done));
    });
  }
  Result<std::vector<Bytes>> get_many(
      std::vector<AddressRange> ranges) override {
    return wait<Result<std::vector<Bytes>>>(
        [ranges = std::move(ranges)](Node& n, auto done) mutable {
          n.get_many(std::move(ranges), std::move(done));
        });
  }
  Status put_many(std::vector<RangeWrite> writes) override {
    return wait<Status>(
        [writes = std::move(writes)](Node& n, auto done) mutable {
          n.put_many(std::move(writes), std::move(done));
        });
  }
  Result<RegionAttrs> getattr(const GlobalAddress& base) override {
    return wait<Result<RegionAttrs>>([base](Node& n, auto done) {
      n.getattr(base, std::move(done));
    });
  }
  Status setattr(const GlobalAddress& base,
                 const RegionAttrs& attrs) override {
    return wait<Status>([base, attrs](Node& n, auto done) {
      n.setattr(base, attrs, std::move(done));
    });
  }
  Result<std::vector<NodeId>> locate(const GlobalAddress& addr) override {
    return wait<Result<std::vector<NodeId>>>([addr](Node& n, auto done) {
      n.locate(addr, std::move(done));
    });
  }
  [[nodiscard]] NodeId node_id() const override { return node_; }

 private:
  [[nodiscard]] Node& node() { return world_.node(node_); }

  /// Posts `start(node, done)` to the node executor and blocks until
  /// `done(result)` fires (possibly much later, from a different executor
  /// callback). `done` may fire, and this call return, while `start` is
  /// still running, so `start` must capture what it uses by value.
  template <typename R, typename Start>
  R wait(Start start) {
    auto state = std::make_shared<WaitState<R>>();
    world_.transport(node_).post(
        [state, n = &node(), start = std::move(start)]() mutable {
          start(*n, [state](R r) {
            std::lock_guard lk(state->mu);
            state->result = std::move(r);
            state->cv.notify_one();
          });
        });
    std::unique_lock lk(state->mu);
    state->cv.wait(lk, [&] { return state->result.has_value(); });
    return std::move(*state->result);
  }

  template <typename R>
  struct WaitState {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<R> result;
  };

  TcpWorld& world_;
  NodeId node_;
};

}  // namespace khz::core
