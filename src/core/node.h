// The Khazana daemon (paper, Sections 2-3).
//
// "the Khazana service is implemented by a dynamically changing set of
// cooperating daemon processes... there is no notion of a 'server' in a
// Khazana system — all Khazana nodes are peers that cooperate to provide
// the illusion of a unified resource."
//
// One Node is one peer. It owns the local storage hierarchy, the per-node
// page and region directories, the consistency managers for every protocol
// in use, the client operation suite (reserve / allocate / lock / read /
// write / attributes), the three-level location lookup of Section 3.2, the
// cluster-manager role when so configured, and the failure-handling
// machinery of Section 3.5 (acquire ops retried then reflected; release ops
// retried in the background until they succeed).
//
// Execution model (docs/architecture.md, threading model): every message,
// timer and client entry point runs in the transport's one execution
// context, and so does every read of the node's state, so none of it takes
// a lock. Other threads reach a node through the transport's post or
// run_on_executor. The SimWorld / TcpWorld wrappers provide blocking
// convenience APIs on top.
#pragma once

#include <algorithm>
#include <deque>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "consistency/cm.h"
#include "core/admission.h"
#include "core/meta_log.h"
#include "core/rpc_engine.h"
#include "location/address_map.h"
#include "location/cluster.h"
#include "location/region.h"
#include "location/region_directory.h"
#include "location/resolver.h"
#include "net/transport.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "storage/hierarchy.h"
#include "storage/page_directory.h"

namespace khz::core {

// The location types live in src/location; core, and every layer above it,
// names them unqualified through these aliases.
using location::AccessControl;
using location::AddressMap;
using location::ClusterState;
using location::ConsistencyLevel;
using location::kFirstClientAddress;
using location::kMapRegionBase;
using location::kMapRegionSize;
using location::kPoolChunkSize;
using location::map_region_descriptor;
using location::MapEntry;
using location::MapPageStore;
using location::RegionAttrs;
using location::RegionDescriptor;
using location::RegionDirectory;

struct NodeConfig {
  NodeId id = 0;
  /// The node that bootstraps region 0 / the address map and (by default)
  /// acts as the single cluster's manager.
  NodeId genesis = 0;
  /// "Each cluster has one or more designated cluster managers"
  /// (Section 3.1); entry 0 is the primary, and empty means the genesis
  /// node alone. Every manager accumulates location hints; address space is
  /// partitioned between them (manager k grants chunk numbers congruent to
  /// k mod M) so grants never collide. The address map's authority remains
  /// the genesis node.
  std::vector<NodeId> cluster_managers;
  /// Initial membership (all peers, including self).
  std::vector<NodeId> peers;

  std::size_t ram_pages = 4096;
  /// Empty: diskless node (no persistence). Otherwise the DiskStore root.
  std::filesystem::path disk_dir;

  Micros rpc_timeout = 200'000;  // per-exchange timeout before a retry
  int max_retries = 3;           // acquire-side retries before failing back
  /// 0 disables the failure-detector ping loop.
  Micros ping_interval = 0;

  /// Admission control (docs/overload.md): bounded per-op-class request
  /// queues with deadline-sorted shedding and kNack backpressure. A limit
  /// of 0 disables admission for that class; all zero (the default) keeps
  /// the synchronous pre-admission dispatch path.
  std::size_t admission_client_queue = 0;
  std::size_t admission_protocol_queue = 0;
  std::size_t admission_replication_queue = 0;
  /// Paced drain: one admitted message per this many micros of scheduler
  /// time (0 = drain unpaced on the next tick). This is what makes a
  /// simulated node saturate — sim handlers take zero virtual time.
  Micros admission_service_us = 0;

  /// fdatasync the metadata journal on every commit, so acknowledged
  /// metadata survives power loss, not just a process crash. Off by
  /// default: sim tests journal thousands of records and only need
  /// crash-of-the-process durability.
  bool sync_metadata = false;

  /// Group commit (docs/storage.md; amortizes one fdatasync over a batch
  /// of page + journal writes). > 0 arms a timer that commits the pending
  /// batch every tick. 0 (the default): every durable write commits inline
  /// when sync_metadata is set — the per-write-fdatasync baseline.
  Micros group_commit_us = 0;
  /// > 0: every interval, checkpoint the metadata journal into a fresh
  /// snapshot and compact cold segments, on the node's timer rail.
  Micros checkpoint_interval = 0;

  /// Telemetry plane (docs/observability.md). Slow-op flight recorder: a
  /// client op is "slow" when its latency exceeds slow_op_threshold_us
  /// (absolute, 0 = off) or slow_op_deadline_fraction of the deadline
  /// budget it started with (0 = off). Either trigger cuts a dossier into
  /// the bounded dossier ring.
  Micros slow_op_threshold_us = 0;
  double slow_op_deadline_fraction = 0.0;
  std::size_t flight_recorder_capacity = 32;
  /// Self-sampler: every interval the node diffs its registry against the
  /// previous sample and appends the delta to the time-series ring
  /// (0 = sampler off).
  Micros stats_sample_interval = 0;
  std::size_t stats_series_capacity = 64;

  /// Location plane (docs/location.md). Manager-to-manager hint
  /// anti-entropy period (0 = off: hints spread only via client misses).
  Micros hint_sync_interval = 0;
  /// Free-space offers older than this are ignored by pool placement
  /// (0 = offers never expire — the legacy behaviour).
  Micros free_space_ttl = 0;

  /// Checkpoint-tick compaction budget: at most this many pages rewritten
  /// per segment-compaction pass (0 = unbounded, the legacy full sweep).
  std::size_t compaction_pages_per_tick = 0;

  std::uint64_t seed = 42;
  std::uint32_t principal = 0;  // identity for ACL checks
};

/// One range of a put_many: `data` is written at the start of `range`.
struct RangeWrite {
  AddressRange range;
  Bytes data;
};

class Node final : public consistency::CmHost,
                   public RpcEngine::Host,
                   public location::Resolver::Host,
                   public AdmissionController::Host {
 public:
  Node(NodeConfig config, net::Transport& transport);
  ~Node() override;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Bootstraps the node: the genesis node formats (or recovers) the
  /// address map; all nodes recover persistent state from disk and start
  /// background loops.
  void start();

  /// Tears down background machinery: cancels the failure-detector timer
  /// and every pending RPC / reliable-send timer in the engine, so a node
  /// with in-flight RPCs can be destroyed while its transport lives on.
  /// Idempotent; also called by the destructor.
  void stop();

  // --- client operations (asynchronous; callbacks fire in node context) --
  using StatusCb = std::function<void(Status)>;
  using ReserveCb = std::function<void(Result<GlobalAddress>)>;
  using LockCb = std::function<void(Result<consistency::LockContext>)>;
  using AttrCb = std::function<void(Result<RegionAttrs>)>;
  using LocateCb = std::function<void(Result<std::vector<NodeId>>)>;
  using BytesCb = std::function<void(Result<Bytes>)>;
  using BytesListCb = std::function<void(Result<std::vector<Bytes>>)>;

  /// Reserves `size` bytes of global address space as a new region homed
  /// on this node (Section 2: reserve/unreserve).
  void reserve(std::uint64_t size, const RegionAttrs& attrs, ReserveCb cb);

  /// Releases a reservation. Release-type: always accepted; remote errors
  /// are retried in the background (Section 3.5).
  void unreserve(const GlobalAddress& base, StatusCb cb);

  /// Allocates backing storage for (part of) a reserved region.
  void allocate(const AddressRange& range, StatusCb cb);

  /// Frees backing storage. Release-type.
  void deallocate(const AddressRange& range, StatusCb cb);

  /// Locks [range) in `mode`; returns a lock context on success. The
  /// consistency protocol of the enclosing region decides when the grant
  /// is safe (Section 3.3).
  void lock(const AddressRange& range, consistency::LockMode mode,
            LockCb cb);

  /// Releases a lock context. Local effects are immediate; propagation is
  /// the protocol's business (and is retried in the background on
  /// failure).
  void unlock(const consistency::LockContext& ctx);

  /// Reads from the locked range. Synchronous: locked pages are resident
  /// and pinned.
  [[nodiscard]] Result<Bytes> read(const consistency::LockContext& ctx,
                                   std::uint64_t offset, std::uint64_t len);

  /// Writes into the locked range (requires a write-mode context).
  Status write(const consistency::LockContext& ctx, std::uint64_t offset,
               std::span<const std::uint8_t> data);

  /// Composite lock(kRead) of every range + read of each + unlock, in one
  /// executor visit. The ranges may lie in different regions; holds are
  /// taken in ascending global address order after one prefetch phase over
  /// all their pages. Once every lock is granted, the reads and the
  /// releases run as one freshly posted job (never inside the protocol's
  /// grant callback), so all ranges are held together, and only across the
  /// accesses. `cb` fires once, with one Bytes per range in the caller's
  /// order, or the first error. All-or-nothing: a failed lock releases
  /// every hold already taken. kBadArgument for an empty batch, a
  /// zero-size range, or two ranges that overlap or share a page.
  void get_many(std::vector<AddressRange> ranges, BytesListCb cb);

  /// Composite lock(kWrite) of every range + write of each `data` at the
  /// start of its range + unlock, staged like get_many(). Data longer than
  /// its range is kBadArgument before any lock is taken.
  void put_many(std::vector<RangeWrite> writes, StatusCb cb);

  /// The one-range get_many().
  void get(const AddressRange& range, BytesCb cb);

  /// The one-range put_many().
  void put(const AddressRange& range, Bytes data, StatusCb cb);

  void getattr(const GlobalAddress& base, AttrCb cb);
  void setattr(const GlobalAddress& base, const RegionAttrs& attrs,
               StatusCb cb);

  /// Where is this datum? Returns the nodes holding copies (home +
  /// sharers), for clients that explicitly query location (Section 2:
  /// replicate-vs-RPC decisions in the object runtime).
  void locate(const GlobalAddress& addr, LocateCb cb);

  /// Moves a region's home (directory authority, descriptor and resident
  /// page copies) to `new_home`. Stale descriptors elsewhere recover via
  /// the normal bounce + re-resolve path ("regions do not migrate home
  /// nodes often, so the cached value is most likely accurate",
  /// Section 3.2). The region's address never changes.
  void migrate(const GlobalAddress& base, NodeId new_home, StatusCb cb);

  /// Client guidance hook ("Khazana is responsive to guidance from its
  /// clients", Section 1; "Flexibility: Khazana must provide 'hooks'",
  /// Section 2): asks the region's home to push current copies of the
  /// region's pages onto `target`, e.g. ahead of a workload shift. The
  /// copies join the page copysets like any replica.
  void replicate_to(const GlobalAddress& base, NodeId target, StatusCb cb);

  /// Gracefully departs the system ("Machines can dynamically enter and
  /// leave Khazana and contribute/reclaim local resources", Section 3):
  /// every region homed here migrates to a surviving peer (round-robin),
  /// hints are retracted, and peers drop this node from membership. The
  /// genesis node cannot leave (it is the map's authority — a limitation
  /// the paper's single-cluster prototype shares).
  void leave(StatusCb cb);

  // --- telemetry scraping (docs/observability.md) -----------------------
  /// kStatsReq flag bits: which optional sections the responder appends
  /// after the registry snapshot (the snapshot itself always ships).
  static constexpr std::uint8_t kScrapeSeries = 1u << 0;
  static constexpr std::uint8_t kScrapeDossiers = 1u << 1;

  /// A peer's telemetry as decoded from one kStatsResp.
  struct RemoteStats {
    NodeId node = kNoNode;
    /// The responder's clock when the snapshot was cut.
    Micros at = 0;
    obs::MetricsSnapshot snapshot;
    std::vector<obs::MetricsSample> series;      // kScrapeSeries
    std::uint64_t series_dropped = 0;            // kScrapeSeries
    std::vector<obs::OpDossier> dossiers;        // kScrapeDossiers
    std::uint64_t dossiers_dropped = 0;          // kScrapeDossiers
  };
  using ScrapeCb = std::function<void(Result<RemoteStats>)>;

  /// Fetches `peer`'s full registry (plus the sections in `flags`) over
  /// the wire. Works against self too (the request loops through the
  /// scheduler like any self-send). Issued untraced on purpose — scraping
  /// must not pollute the span rings it exports.
  void scrape_stats(NodeId peer, std::uint8_t flags, ScrapeCb cb);

  /// Decodes a kStatsResp payload. Returns kOk and fills `out` on success,
  /// the carried error status if the responder reported one, kCorrupt if
  /// the payload fails to parse. Static so external scrapers (khz_stats)
  /// that are not Nodes share the one wire-format reader.
  static ErrorCode decode_stats_payload(Decoder& d, RemoteStats& out);

  // --- introspection ----------------------------------------------------
  /// This node's id (stable for the node's lifetime; reused on restart).
  [[nodiscard]] NodeId id() const { return config_.id; }
  /// The configuration the node was constructed with (an empty manager
  /// list reads back as {genesis}).
  [[nodiscard]] const NodeConfig& config() const { return config_; }
  /// Causal span recorder for this node (spans export via the worlds'
  /// trace_json helpers).
  [[nodiscard]] obs::Tracer& tracer() override { return tracer_; }
  /// The RPC substrate (retries, deadlines, backoff). Exposed so tests
  /// and advanced clients can issue deadline-scoped calls directly.
  [[nodiscard]] RpcEngine& rpc_engine() { return engine_; }
  /// The admission queues (bounded, deadline-shedding). Tests and benches
  /// inspect depths; configuration comes from NodeConfig.
  [[nodiscard]] AdmissionController& admission() { return admission_; }
  /// The two-level (RAM over disk) local page store.
  [[nodiscard]] storage::StorageHierarchy& storage() { return storage_; }
  /// Page metadata: sharers, owner, dirty, lock holds.
  [[nodiscard]] storage::PageDirectory& page_directory() { return pages_; }
  /// The three-level location lookup (docs/location.md).
  [[nodiscard]] location::Resolver& resolver() { return resolver_; }
  /// LRU cache of recently used region descriptors (location level 1).
  [[nodiscard]] RegionDirectory& region_directory() { return regions_; }
  /// Current cluster membership as this node believes it (includes self).
  [[nodiscard]] const std::set<NodeId>& members() const { return members_; }
  /// All cluster managers, primary first.
  [[nodiscard]] const std::vector<NodeId>& managers() const override {
    return config_.cluster_managers;
  }
  /// True when this node serves the cluster-manager role.
  [[nodiscard]] bool is_manager() const override {
    return std::ranges::find(managers(), config_.id) != managers().end();
  }
  /// Manager-side address map (null elsewhere). Tests/benches inspect it.
  [[nodiscard]] AddressMap* address_map() { return map_.get(); }
  /// Cluster-manager hint cache and free-space offers (location level 2).
  [[nodiscard]] ClusterState& cluster_state() { return cluster_; }
  /// Slow-op dossier ring (docs/observability.md); bounded, drop-counted.
  [[nodiscard]] obs::FlightRecorder& flight_recorder() { return flight_; }
  /// Self-sampled metric-delta time series (empty unless
  /// stats_sample_interval > 0).
  [[nodiscard]] obs::TimeSeriesRing& stats_series() { return series_; }

  /// Pending background (release-side) retry operations.
  [[nodiscard]] std::size_t background_queue_depth() const {
    return engine_.reliable_queue_depth();
  }

  // --- application-layer messaging (distributed object runtime) ---------
  using AppRespHandler = std::function<void(bool ok, Decoder& d)>;
  /// Handler for kObjInvokeReq messages (installed by obj::ObjectRuntime).
  void set_obj_invoke_handler(
      std::function<void(const net::Message&)> handler) {
    obj_handler_ = std::move(handler);
  }
  /// RPC / response plumbing exposed to the object runtime.
  void app_rpc(NodeId dst, net::MsgType type, Bytes payload,
               AppRespHandler handler);
  void app_respond(const net::Message& req, net::MsgType type, Bytes payload);

  // --- CmHost -----------------------------------------------------------
  [[nodiscard]] NodeId self() const override { return config_.id; }
  void send_cm(NodeId peer, consistency::ProtocolId protocol,
               const GlobalAddress& page, Bytes payload) override;
  void send_page_batch(NodeId peer, consistency::ProtocolId protocol,
                       bool request, Bytes payload) override;
  storage::PageInfo& page_info(const GlobalAddress& page) override;
  const Bytes* page_data(const GlobalAddress& page) override;
  void store_page(const GlobalAddress& page, Bytes data) override;
  void drop_page(const GlobalAddress& page) override;
  [[nodiscard]] NodeId home_of(const GlobalAddress& page) override;
  [[nodiscard]] bool is_home(const GlobalAddress& page) override;
  [[nodiscard]] std::vector<NodeId> alternate_homes(
      const GlobalAddress& page) override;
  [[nodiscard]] std::uint32_t page_size_of(const GlobalAddress& page) override;
  [[nodiscard]] std::uint32_t min_replicas_of(
      const GlobalAddress& page) override;
  std::vector<NodeId> membership() override;
  [[nodiscard]] bool write_gated(const GlobalAddress& page) override;
  void note_copyset_change(const GlobalAddress& page) override;
  [[nodiscard]] Micros now() const override;
  std::uint64_t schedule(Micros delay, std::function<void()> fn) override;
  void cancel(std::uint64_t timer_id) override;
  [[nodiscard]] Rng& rng() override { return rng_; }
  [[nodiscard]] Micros rpc_timeout() const override {
    return config_.rpc_timeout;
  }
  [[nodiscard]] int max_retries() const override {
    return config_.max_retries;
  }
  [[nodiscard]] obs::MetricsRegistry& metrics() override { return metrics_; }
  /// Failure-detector verdict, shared by the RPC engine (down-node
  /// short-circuit) and the consistency protocols (request steering).
  [[nodiscard]] bool is_down(NodeId node) override {
    return down_nodes_.contains(node);
  }
  /// Protocol retries share the engine's capped jittered backoff policy.
  [[nodiscard]] Micros retry_backoff(int attempt) override {
    return engine_.backoff(attempt);
  }

  // --- AdmissionController::Host (now/schedule/cancel shared with CmHost)
  void dispatch(const net::Message& m) override;
  void nack(const net::Message& m) override;

  // --- location::Resolver::Host -----------------------------------------
  [[nodiscard]] NodeId genesis() const override { return config_.genesis; }
  [[nodiscard]] std::optional<RegionDescriptor> homed_descriptor(
      const GlobalAddress& addr) override;
  /// One location-plane RPC, backed by the node's engine (the resolver's
  /// CallSpec maps onto the engine's attempt/steer policy).
  void call(std::vector<NodeId> candidates, net::MsgType type, Bytes payload,
            location::Resolver::Host::CallHandler handler,
            location::Resolver::Host::CallSpec spec) override;

 private:
  // -- map page store over region-0 pages (manager side) ------------------
  class LocalMapStore final : public MapPageStore {
   public:
    explicit LocalMapStore(Node& node) : node_(node) {}
    [[nodiscard]] Bytes read_page(std::uint32_t index) override;
    void write_page(std::uint32_t index, const Bytes& data) override;
    [[nodiscard]] std::uint32_t page_size() const override {
      return kDefaultPageSize;
    }

   private:
    Node& node_;
  };

  using RespHandler = std::function<void(bool ok, Decoder& d)>;

  // Messaging.
  void on_message(net::Message msg);
  /// Deadline scope + rx-span bracketing around handle_request; requests
  /// reach it either synchronously from on_message or deferred through the
  /// admission queues.
  void dispatch_request(const net::Message& msg);
  void handle_request(const net::Message& msg);
  /// Routes a fully-built message: self-sends loop back through the
  /// scheduler (handlers are never re-entered), everything else goes to
  /// the transport. Does not touch the trace fields.
  void route(net::Message m) override;
  /// Stamps the message with the tracer's current context, then route().
  void send_msg(net::Message m);
  /// Single-attempt RPC (probes, joins, walk fan-outs). Retrying callers
  /// use engine_.call() directly with a candidate list.
  void rpc(NodeId dst, net::MsgType type, Bytes payload, RespHandler handler);
  void respond(const net::Message& req, net::MsgType type, Bytes payload);

  // Request handlers (by message type).
  void on_reserve_req(const net::Message& m);
  void on_unreserve_req(const net::Message& m);
  void on_space_req(const net::Message& m);
  void on_map_mutate_req(const net::Message& m);
  void on_desc_lookup_req(const net::Message& m);
  void on_hint_query_req(const net::Message& m);
  void on_hint_publish(const net::Message& m);
  void on_hint_sync_req(const net::Message& m);
  void on_cluster_walk_req(const net::Message& m);
  void on_alloc_req(const net::Message& m);
  void on_free_req(const net::Message& m);
  void on_attr_req(const net::Message& m, bool set);
  void on_locate_req(const net::Message& m);
  void on_replica_push(const net::Message& m);
  void on_replica_drop(const net::Message& m);
  void on_join_req(const net::Message& m);
  void on_migrate_req(const net::Message& m);
  void on_migrate_data(const net::Message& m);
  void on_replicate_to_req(const net::Message& m);

  // Map page access for the Resolver's tree walk (readers replicate map
  // pages via the release protocol).
  void fetch_map_page(std::uint32_t index,
                      std::function<void(Result<Bytes>)> cb) override;

  // Local reservation machinery.
  /// Publishes (or retracts) a location hint for `range` held by this node
  /// to every cluster manager, piggybacking the current pool size.
  void publish_hint(const AddressRange& range, bool retract);
  /// kMapMutateReq ops: the address map entry for a range is inserted,
  /// erased or given a new home list.
  static constexpr std::uint8_t kMapInsert = 1;
  static constexpr std::uint8_t kMapErase = 2;
  static constexpr std::uint8_t kMapUpdateHomes = 3;
  /// Sends `op` for `range` (with its `homes`) to the address map's home,
  /// reliably in the background: the map is a hint structure and
  /// tolerates lag.
  void mutate_map(std::uint8_t op, const AddressRange& range,
                  const std::vector<NodeId>& homes);
  /// Unreserve at the home, for a local or a remote caller: frees the
  /// region's pages, returns its range to the pool, journals both, and
  /// erases the map entry and the managers' hint.
  void drop_homed_region(const RegionDescriptor& desc);
  [[nodiscard]] std::optional<GlobalAddress> carve_from_pool(
      std::uint64_t size);
  void finish_reserve(const AddressRange& range, const RegionAttrs& attrs,
                      ReserveCb cb);
  [[nodiscard]] std::uint64_t pool_bytes() const;

  // Lock machinery (node_lock.cc). One LockOp serves lock(), get/put and
  // get_many/put_many: resolve every range, then a windowed prefetch
  // fan-out warms every page (parallel remote rounds, no holds taken),
  // then holds are taken in strict ascending address order (deadlock
  // avoidance). Yields one lock context per range, in the caller's order.
  struct LockOp;
  using LocksCb =
      std::function<void(Result<std::vector<consistency::LockContext>>)>;
  void lock_ranges(std::vector<AddressRange> ranges,
                   consistency::LockMode mode, LocksCb cb);
  /// Resolves the region of `range` and checks containment, the ACL and
  /// allocation (refreshing a descriptor cached before allocate()).
  void resolve_for_lock(const AddressRange& range, consistency::LockMode mode,
                        location::Resolver::DescCb cb);
  void start_lock_op(const std::shared_ptr<LockOp>& op);
  void lock_prefetch_pump(const std::shared_ptr<LockOp>& op);
  void lock_next_page(std::shared_ptr<LockOp> op);
  void grant_lock_op(LockOp& op);
  [[nodiscard]] consistency::ConsistencyManager* cm_for(
      consistency::ProtocolId protocol);

  // Storage integration.
  bool evict_hook(const GlobalAddress& page, const Bytes& data);
  void materialize_region_pages(const RegionDescriptor& desc,
                                const AddressRange& range);
  void release_region_pages(const RegionDescriptor& desc,
                            const AddressRange& range);

  // Replica maintenance (Section 3.5: minimum primary replicas).
  void maintain_replicas(const GlobalAddress& page);

  // Failure detection.
  void ping_tick();
  void mark_node_down(NodeId node);
  void mark_node_up(NodeId node);

  // Manager hint anti-entropy (docs/location.md): each tick a manager sends
  // its signed hint set to every live peer manager; both ends merge
  // newest-wins.
  void hint_sync_tick();
  void sync_hints_with(NodeId peer);

  // Telemetry plane (docs/observability.md).
  void on_stats_req(const net::Message& m);
  /// Self-sampler tick: diffs the registry against the previous sample and
  /// appends the delta to the time-series ring.
  void sample_tick();
  /// Captured at client-op start; compared at completion to decide whether
  /// the op was slow enough to deserve a dossier. attempts0/steered0 are the
  /// engine's cumulative counters at t0, so the dossier carries per-op
  /// deltas (single-threaded node: no other op mutates them mid-flight).
  struct OpWatch {
    Micros t0 = 0;
    std::uint64_t deadline = 0;
    std::uint64_t attempts0 = 0;
    std::uint64_t steered0 = 0;
  };
  [[nodiscard]] OpWatch watch_op();
  /// Cuts a dossier into the flight recorder when the op crossed either
  /// slow-op trigger. Must run after the op's root span ends (the dossier
  /// harvests the span tree from the trace ring by trace_id).
  void maybe_record_slow_op(const char* op, const OpWatch& w,
                            std::uint64_t trace_id);

  // Home fail-over (docs/recovery.md): when the failure detector declares
  // a region's home dead, the surviving copy-set member with the highest
  // node id promotes itself to home, re-registers hints/map entries, and
  // re-replicates to min_replicas before accepting new writes.
  void maybe_promote_regions(NodeId dead);
  void promote_region(RegionDescriptor desc, NodeId dead);

  // Persistence of node metadata across restarts lives in MetaLog; the
  // node supplies the snapshot (for compaction) and installs what
  // recover() returns.
  [[nodiscard]] MetaLog::Snapshot snapshot_state();
  void recover_meta();
  /// Journals the page's current directory version (write-through pages)
  /// and runs the disk store's group-commit policy point.
  void journal_page(const GlobalAddress& page);

  // Segment-store data plane (docs/storage.md); all in node_meta.cc.
  /// Applies the NodeConfig durability knobs to the shared DiskStore
  /// (sync-on-commit, group commit, metric binding). Constructor-time.
  void configure_disk();
  /// Arms the group-commit and checkpoint timers per config (start()).
  void start_storage_timers();
  /// Cancels them and drains any pending commit (stop()).
  void stop_storage_timers();
  /// Group-commit timer tick: commits the pending batch, re-arms.
  void commit_tick();
  /// Checkpoint timer tick: snapshots + truncates the metadata journal
  /// (when anything was journaled since the last snapshot) and compacts
  /// cold segments, then re-arms.
  void checkpoint_tick();

  NodeConfig config_;
  net::Transport& transport_;
  /// Deterministic RNG, seeded from (seed, id).
  Rng rng_;

  /// Null = diskless. Shared with the hierarchy.
  std::shared_ptr<storage::DiskStore> disk_;
  storage::StorageHierarchy storage_;
  storage::PageDirectory pages_;

  /// Regions homed on this node: authoritative descriptors.
  std::map<GlobalAddress, RegionDescriptor> homed_regions_;
  /// Locally reserved-but-unused address space pool (Section 3.1).
  std::vector<AddressRange> pool_;
  /// Manager only: bytes granted so far out of this manager's private
  /// slab of the global space (manager k owns a disjoint slab, so
  /// concurrent managers never hand out overlapping chunks).
  std::uint64_t granted_bytes_ = 0;
  /// Every locally journaled page version: what snapshot_state() saves and
  /// what release_region_pages() journals an erase for.
  std::map<GlobalAddress, Version> journaled_pages_;

  std::unique_ptr<LocalMapStore> map_store_;
  std::unique_ptr<AddressMap> map_;

  /// One consistency manager per protocol in use, created on demand.
  std::map<consistency::ProtocolId,
           std::unique_ptr<consistency::ConsistencyManager>>
      cms_;

  // Active lock contexts.
  struct ActiveLock {
    consistency::LockContext ctx;
    consistency::ProtocolId protocol;
    std::vector<GlobalAddress> pages;
    std::set<GlobalAddress> dirty;
    std::uint32_t page_size = kDefaultPageSize;
  };
  std::unordered_map<std::uint64_t, ActiveLock> active_locks_;
  std::uint64_t next_lock_id_ = 1;

  std::set<NodeId> members_;
  std::set<NodeId> down_nodes_;
  std::map<NodeId, int> missed_pongs_;
  /// Region bases this node promoted itself to home of and whose
  /// min-replica guarantee is still being rebuilt; write grants are gated
  /// (write_gated) until the copyset recovers.
  std::set<GlobalAddress> recovering_regions_;
  std::function<void(const net::Message&)> obj_handler_;

  // Observability. `ins_` pre-binds the hot-path instruments so counting
  // never takes the registry's name-lookup mutex.
  obs::MetricsRegistry metrics_;
  obs::Tracer tracer_;
  /// Telemetry plane (docs/observability.md): slow-op dossier ring and the
  /// self-sampled metric-delta time series, both exported through the
  /// kStatsReq scrape path.
  obs::FlightRecorder flight_;
  obs::TimeSeriesRing series_;
  /// Registry snapshot at the previous sampler tick (delta baseline).
  obs::MetricsSnapshot last_sample_;

  /// The location plane (docs/location.md): the region-directory cache
  /// (level 1), the hint cache (level 2) and the resolver that walks them,
  /// with the node as its Host. Declared after metrics_ (instruments bind
  /// at construction).
  RegionDirectory regions_;
  ClusterState cluster_;
  location::Resolver resolver_;

  /// RPC substrate + the subsystems split out of the old god object. All
  /// see the node only through narrow host interfaces. Declared after
  /// metrics_ (their instruments bind at construction).
  RpcEngine engine_;
  /// Bound to the hierarchy (all journal I/O funnels through the shared
  /// DiskStore).
  MetaLog meta_;
  AdmissionController admission_;
  /// Failure-detector loop timer; cancelled by stop().
  std::uint64_t ping_timer_ = 0;
  /// Self-sampler loop timer; cancelled by stop().
  std::uint64_t sample_timer_ = 0;
  /// Hint anti-entropy timer (managers only); cancelled by stop().
  std::uint64_t hint_sync_timer_ = 0;
  /// Group-commit drain timer (config_.group_commit_us); cancelled by
  /// stop(), which also commits whatever is still pending.
  std::uint64_t commit_timer_ = 0;
  /// Checkpoint/compaction timer (config_.checkpoint_interval); cancelled
  /// by stop().
  std::uint64_t checkpoint_timer_ = 0;

  struct Instruments {
    obs::Counter* reserves = nullptr;
    obs::Counter* locks_granted = nullptr;
    obs::Counter* locks_failed = nullptr;
    obs::Counter* reads = nullptr;
    obs::Counter* writes = nullptr;
    obs::Counter* replica_pushes = nullptr;
    /// Server-side drops of expired work (rpc.deadline_expired.server);
    /// the engine counts client-side expiries separately under
    /// rpc.deadline_expired.client, so shed-rate attribution works.
    obs::Counter* deadline_expired = nullptr;
    obs::Histogram* reserve_us = nullptr;
    obs::Histogram* lock_read_us = nullptr;
    obs::Histogram* lock_write_us = nullptr;
    obs::Histogram* lock_write_shared_us = nullptr;
    obs::Histogram* read_us = nullptr;
    obs::Histogram* write_us = nullptr;
    /// Ranges and pages per lock op, and the prefetch window's occupancy
    /// sampled at each issue (how much of the pipeline is actually used).
    obs::Histogram* lock_ranges = nullptr;
    obs::Histogram* lock_pages = nullptr;
    obs::Histogram* lock_window = nullptr;
    /// Telemetry plane.
    obs::Counter* scrapes_served = nullptr;
    obs::Counter* samples = nullptr;
    obs::Counter* slow_ops = nullptr;
    /// The engine's own rpc.attempts / rpc.steered instruments (same
    /// Counter objects via registry name lookup); read by the slow-op
    /// watch to attribute per-op retry/steer deltas.
    obs::Counter* rpc_attempts = nullptr;
    obs::Counter* rpc_steered = nullptr;
    obs::Histogram* getattr_us = nullptr;
    /// Hint anti-entropy: rounds started, records merged, payloads
    /// rejected, and records the failure detector retracted.
    obs::Counter* hint_sync_rounds = nullptr;
    obs::Counter* hint_sync_merged = nullptr;
    obs::Counter* hint_sync_rejected = nullptr;
    obs::Counter* retractions = nullptr;
  } ins_;
  [[nodiscard]] obs::Histogram* lock_hist(consistency::LockMode mode);

  bool started_ = false;
};

}  // namespace khz::core
