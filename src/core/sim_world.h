// SimWorld: a whole Khazana deployment on the discrete-event simulator,
// with blocking convenience wrappers around the asynchronous node API.
//
// This is the workhorse for tests, benchmarks and examples: construct a
// world of N peers, then call reserve/allocate/lock/read/write/unlock as
// plain blocking functions — each one issues the async operation and pumps
// the simulator until its completion callback fires, so virtual time and
// message counts accumulate exactly as they would in a real run.
#pragma once

#include <filesystem>
#include <memory>
#include <set>
#include <vector>

#include "core/node.h"
#include "net/sim_network.h"

namespace khz::core {

struct SimWorldOptions {
  std::size_t nodes = 3;
  /// Number of cluster managers (node ids 0..managers-1).
  std::size_t managers = 1;
  net::LinkProfile link = net::LinkProfile::lan();
  std::size_t ram_pages = 4096;
  /// Non-empty: every node gets a DiskStore under <disk_root>/node<i>.
  std::filesystem::path disk_root;
  Micros rpc_timeout = 200'000;
  int max_retries = 3;
  Micros ping_interval = 0;
  /// Admission-control knobs, forwarded verbatim to every NodeConfig
  /// (see docs/overload.md). Defaults keep admission off.
  std::size_t admission_client_queue = 0;
  std::size_t admission_protocol_queue = 0;
  std::size_t admission_replication_queue = 0;
  Micros admission_service_us = 0;
  /// fdatasync the metadata journal on commit (power-loss durability).
  bool sync_metadata = false;
  /// Segment-store data plane knobs, forwarded verbatim to every
  /// NodeConfig (docs/storage.md).
  Micros group_commit_us = 0;
  Micros checkpoint_interval = 0;
  /// Telemetry knobs, forwarded verbatim to every NodeConfig (see
  /// docs/observability.md). Defaults: flight recorder armed but never
  /// triggered, self-sampler off.
  Micros slow_op_threshold_us = 0;
  double slow_op_deadline_fraction = 0.0;
  std::size_t flight_recorder_capacity = 32;
  Micros stats_sample_interval = 0;
  std::size_t stats_series_capacity = 64;
  /// Location knobs, forwarded verbatim to every NodeConfig (see
  /// docs/location.md). Defaults keep hint anti-entropy and free-space
  /// expiry off.
  Micros hint_sync_interval = 0;
  Micros free_space_ttl = 0;
  /// Checkpoint-tick compaction budget (0 = unbounded).
  std::size_t compaction_pages_per_tick = 0;
  std::uint64_t seed = 1;
};

class SimWorld {
 public:
  explicit SimWorld(SimWorldOptions opts = {});
  ~SimWorld();

  SimWorld(const SimWorld&) = delete;
  SimWorld& operator=(const SimWorld&) = delete;

  [[nodiscard]] net::SimNetwork& net() { return net_; }
  [[nodiscard]] Node& node(NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] std::size_t size() const { return nodes_.size(); }

  /// Kills a node mid-run (kill -9 semantics): the Node object and all its
  /// volatile state are destroyed, in-flight messages to or from it vanish,
  /// and its timers are suppressed. The disk directory survives. Pair with
  /// restart_node to reboot it.
  void crash_node(NodeId id);

  /// (Re)starts a node with fresh volatile state (same disk): crashes it
  /// first if it is still up, then rebuilds the Node from its persistent
  /// store on the same network endpoint. Requires a disk_root for state to
  /// survive (otherwise the node comes back empty). `settle` pumps one rpc
  /// timeout of virtual time so the reboot's join traffic drains; pass
  /// false from scheduled scripts (the surrounding pump is already
  /// running).
  void restart_node(NodeId id, bool settle = true);

  /// True if `id` currently has a live Node object (i.e. not crashed).
  [[nodiscard]] bool node_alive(NodeId id) const {
    return nodes_.at(id) != nullptr;
  }

  // --- fault-injection scripting (docs/recovery.md) ---------------------
  // Each schedules an action at now+delay of virtual time on the
  // simulator's global timer rail (exempt from crash suppression), so a
  // whole kill/reboot/partition scenario can be scripted up front and then
  // driven by a single pump_for/pump_until while clients keep operating.
  void schedule_crash(Micros delay, NodeId id);
  void schedule_restart(Micros delay, NodeId id);
  void schedule_partition(Micros delay, std::set<NodeId> a,
                          std::set<NodeId> b);
  void schedule_heal(Micros delay);

  /// Pumps the network until `done` is true; returns false if the event
  /// queue drained or `limit` events ran first.
  bool pump_until(const std::function<bool()>& done,
                  std::size_t limit = 5'000'000);
  /// Pumps everything currently queued within `duration` of virtual time.
  void pump_for(Micros duration) { net_.run_for(duration); }

  // --- blocking operation wrappers (issue on node `n`, pump to done) ----
  Result<GlobalAddress> reserve(NodeId n, std::uint64_t size,
                                const RegionAttrs& attrs = {});
  Status unreserve(NodeId n, const GlobalAddress& base);
  Status allocate(NodeId n, const AddressRange& range);
  Status deallocate(NodeId n, const AddressRange& range);
  Result<consistency::LockContext> lock(NodeId n, const AddressRange& range,
                                        consistency::LockMode mode);
  void unlock(NodeId n, const consistency::LockContext& ctx);
  Result<Bytes> read(NodeId n, const consistency::LockContext& ctx,
                     std::uint64_t offset, std::uint64_t len);
  Status write(NodeId n, const consistency::LockContext& ctx,
               std::uint64_t offset, std::span<const std::uint8_t> data);
  Result<RegionAttrs> getattr(NodeId n, const GlobalAddress& base);
  Status setattr(NodeId n, const GlobalAddress& base,
                 const RegionAttrs& attrs);
  Result<std::vector<NodeId>> locate(NodeId n, const GlobalAddress& addr);
  Status migrate(NodeId n, const GlobalAddress& base, NodeId new_home);
  Status replicate_to(NodeId n, const GlobalAddress& base, NodeId target);
  /// Blocking remote-stats scrape: node `n` fetches `peer`'s registry (plus
  /// the sections in `flags`) over the simulated wire.
  Result<Node::RemoteStats> scrape(NodeId n, NodeId peer,
                                   std::uint8_t flags = 0);

  // --- composite conveniences -------------------------------------------
  /// reserve + allocate in one step.
  Result<GlobalAddress> create_region(NodeId n, std::uint64_t size,
                                      const RegionAttrs& attrs = {});
  /// lock(write) + write + unlock.
  Status put(NodeId n, const AddressRange& range,
             std::span<const std::uint8_t> data);
  /// lock(read) + read + unlock.
  Result<Bytes> get(NodeId n, const AddressRange& range);
  /// Node::get_many / Node::put_many: every range locked at once, in one
  /// composite (see node.h).
  Result<std::vector<Bytes>> get_many(NodeId n,
                                      std::vector<AddressRange> ranges);
  Status put_many(NodeId n, std::vector<RangeWrite> writes);

  // --- observability ----------------------------------------------------
  /// Chrome trace-event JSON of every node's finished spans, merged.
  /// Load the output in chrome://tracing or https://ui.perfetto.dev.
  [[nodiscard]] std::string trace_json() const;
  /// One node's metric registry, with the deployment-wide SimNetwork
  /// counters mirrored in under net.* (the simulator counts traffic
  /// globally, not per endpoint).
  [[nodiscard]] std::string metrics_text(NodeId n);
  [[nodiscard]] std::string metrics_json(NodeId n);
  /// Scrapes every live node over the wire and emits one cluster-wide
  /// rollup (counters/gauges summed, histograms merged bucket-wise) plus
  /// the per-node breakdown:
  ///   {"cluster":{...},"nodes":{"0":{...},...}}
  /// The deployment-global net.* counters are attributed to exactly one
  /// node so the rollup counts them once.
  [[nodiscard]] std::string cluster_metrics_json();

 private:
  void sync_net_metrics(NodeId n);

  SimWorldOptions opts_;
  net::SimNetwork net_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

}  // namespace khz::core
