// Consistency Manager framework (paper, Section 3.3).
//
// "Program modules called Consistency Managers (CMs) run at each of the
// replica sites and cooperate to implement the required level of
// consistency among the replicas... [Khazana] obtains the local consistency
// manager's permission before granting such requests. The CM, in response
// to such requests, checks if they conflict with ongoing operations. If
// necessary, it delays granting the locks until the conflict is resolved."
//
// The framework follows Brun-Cottan & Makpangou's separation: generic
// Khazana machinery (storage, location, messaging) is provided to the
// protocol through the CmHost interface; everything protocol-specific lives
// in a ConsistencyManager implementation. New protocols plug in by
// registering a factory ("plugging in new protocols or consistency managers
// is only a matter of registering them with Khazana", Section 5).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/serialize.h"
#include "common/types.h"
#include "consistency/lock.h"
#include "obs/metrics.h"
#include "storage/page_directory.h"

namespace khz::consistency {

/// Consistency protocol selector stored in region attributes.
enum class ProtocolId : std::uint8_t {
  kCrew = 1,      // Concurrent Read Exclusive Write (the paper's prototype)
  kRelease = 2,   // release consistency (used for the address map)
  kEventual = 3,  // Bayou-like last-writer-wins gossip
};

[[nodiscard]] std::string_view to_string(ProtocolId p);

/// Services Khazana provides to a protocol implementation.
class CmHost {
 public:
  virtual ~CmHost() = default;

  [[nodiscard]] virtual NodeId self() const = 0;

  /// Sends a protocol payload to the peer CM for `page` on `peer`.
  virtual void send_cm(NodeId peer, ProtocolId protocol,
                       const GlobalAddress& page, Bytes payload) = 0;

  /// Page metadata entry (sharers, owner, holds, state, version).
  virtual storage::PageInfo& page_info(const GlobalAddress& page) = 0;

  /// Local copy of the page contents, or nullptr if not resident.
  virtual const Bytes* page_data(const GlobalAddress& page) = 0;

  /// Installs a copy of the page locally (into the storage hierarchy).
  virtual void store_page(const GlobalAddress& page, Bytes data) = 0;

  /// Removes the local copy (invalidation).
  virtual void drop_page(const GlobalAddress& page) = 0;

  /// Region attributes the protocol needs, resolved from cached
  /// descriptors. `home_of` is the primary home; `alternate_homes`
  /// lists the others (paper: a region has a non-exhaustive list of
  /// home nodes).
  [[nodiscard]] virtual NodeId home_of(const GlobalAddress& page) = 0;
  /// Authoritative: does THIS node home the page's region right now?
  /// (home_of may fall back to heuristics; this never does.)
  [[nodiscard]] virtual bool is_home(const GlobalAddress& page) = 0;
  [[nodiscard]] virtual std::vector<NodeId> alternate_homes(
      const GlobalAddress& page) = 0;
  [[nodiscard]] virtual std::uint32_t page_size_of(
      const GlobalAddress& page) = 0;
  [[nodiscard]] virtual std::uint32_t min_replicas_of(
      const GlobalAddress& page) = 0;

  /// All nodes currently believed to be members.
  [[nodiscard]] virtual std::vector<NodeId> membership() = 0;

  /// True while `page`'s region is rebuilding its min-replica guarantee
  /// after a home fail-over promotion (docs/recovery.md): the home-side
  /// protocol must hold write grants — handing out exclusive ownership
  /// before the copyset recovers would reopen the single-copy window the
  /// replication factor exists to close. Reads are never gated. Defaulted
  /// to false so hosts without fail-over need not implement it.
  [[nodiscard]] virtual bool write_gated(const GlobalAddress& page) {
    (void)page;
    return false;
  }

  /// The protocol changed the page's copyset (ownership transfer, dropped
  /// replica, dirty release). The node uses this to re-check the region's
  /// minimum-replica guarantee (paper, Section 3.5).
  virtual void note_copyset_change(const GlobalAddress& page) = 0;

  [[nodiscard]] virtual Micros now() const = 0;
  virtual std::uint64_t schedule(Micros delay, std::function<void()> fn) = 0;
  virtual void cancel(std::uint64_t timer_id) = 0;
  [[nodiscard]] virtual Rng& rng() = 0;

  /// How long a protocol should wait on a single remote exchange before
  /// retrying, and how many times, before reporting failure upward.
  [[nodiscard]] virtual Micros rpc_timeout() const = 0;
  [[nodiscard]] virtual int max_retries() const = 0;

  /// Delay before a protocol's retry `attempt` (1-based count of failures
  /// so far). Real hosts answer with their RPC engine's capped jittered
  /// exponential backoff so protocol rounds and plain RPCs share one
  /// policy; the default (0 = resend immediately) preserves the legacy
  /// behavior for minimal hosts and keeps unit-test fakes deterministic.
  [[nodiscard]] virtual Micros retry_backoff(int attempt) {
    (void)attempt;
    return 0;
  }

  /// Failure-detector verdict for `node`; protocols steer requests away
  /// from peers the detector has declared dead instead of burning a full
  /// round timeout on them. Defaulted to "nobody is down".
  [[nodiscard]] virtual bool is_down(NodeId node) {
    (void)node;
    return false;
  }

  /// The host node's metric registry; protocols record their round
  /// latencies and counters here. Defaulted (to a process-wide registry)
  /// so minimal hosts — test fakes — need not provide one.
  [[nodiscard]] virtual obs::MetricsRegistry& metrics();

  /// Sends a batched data-plane message (kPageBatchFetchReq when `request`,
  /// else kPageBatchFetchResp) whose payload covers many pages at once; the
  /// receiver routes it to the protocol's on_batch_fetch/on_batch_grant.
  /// Defaulted to a drop so minimal hosts need not implement batching:
  /// protocols must treat batch sends as best-effort and recover through
  /// their per-page retry timers.
  virtual void send_page_batch(NodeId peer, ProtocolId protocol, bool request,
                               Bytes payload);
};

using GrantCallback = std::function<void(Status)>;

/// One protocol instance per (node, protocol); page state is keyed
/// internally by address.
class ConsistencyManager {
 public:
  virtual ~ConsistencyManager() = default;

  /// The ProtocolId this instance implements (matches its registry key).
  [[nodiscard]] virtual ProtocolId id() const = 0;
  /// Human-readable protocol name for logs and metrics labels.
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Client declared intent to access `page` in `mode`. The CM must
  /// eventually invoke `done` (possibly immediately) with the grant
  /// decision. A granted lock increments the page's hold counters.
  virtual void acquire(const GlobalAddress& page, LockMode mode,
                       GrantCallback done) = 0;

  /// Best-effort warm-up: bring `page` into a state where a subsequent
  /// acquire(mode) can be granted without a remote round trip (data for
  /// reads, ownership for writes) WITHOUT taking a lock hold. Many
  /// prefetches may run concurrently — since no holds are taken, concurrent
  /// overlapping prefetchers cannot deadlock — which is what lets a
  /// multi-page lock pipeline its N remote rounds into ~1. `done` fires
  /// when the warm-up resolves; its status is advisory (the authoritative
  /// grant decision is the later acquire). Default: nothing to warm up.
  virtual void prefetch(const GlobalAddress& page, LockMode mode,
                        GrantCallback done) {
    (void)page;
    (void)mode;
    done(Status{});
  }

  /// Batched data-plane messages (see CmHost::send_page_batch): a request
  /// carrying a page list, and the multi-grant response. Decoders are
  /// positioned after the protocol id byte. Default: protocol does not
  /// batch; ignore (per-page retries recover).
  virtual void on_batch_fetch(NodeId from, Decoder& d) {
    (void)from;
    (void)d;
  }
  virtual void on_batch_grant(NodeId from, Decoder& d) {
    (void)from;
    (void)d;
  }

  /// Lock released. `dirty` reports whether the holder wrote the page.
  virtual void release(const GlobalAddress& page, LockMode mode,
                       bool dirty) = 0;

  /// Protocol message from the peer CM on `from`.
  virtual void on_message(NodeId from, const GlobalAddress& page,
                          Decoder& d) = 0;

  /// Storage wants to drop the local copy entirely. Return false to veto
  /// (e.g. this is the last copy anywhere). A true return must leave the
  /// sharer lists consistent (paper, Section 3.4).
  virtual bool on_evict(const GlobalAddress& page) = 0;

  /// Failure detector verdict: `node` is gone; clean up protocol state.
  virtual void on_node_down(NodeId node) = 0;
};

/// Factory registry keyed by ProtocolId.
class ProtocolRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<ConsistencyManager>(CmHost&)>;

  /// The process-wide registry (protocols register once per process).
  static ProtocolRegistry& instance();

  /// Registers (or replaces) the factory for `id`.
  void register_protocol(ProtocolId id, Factory factory);
  /// Instantiates the protocol for one host node; nullptr if unknown.
  [[nodiscard]] std::unique_ptr<ConsistencyManager> create(
      ProtocolId id, CmHost& host) const;
  /// True if a factory for `id` has been registered.
  [[nodiscard]] bool known(ProtocolId id) const;

 private:
  std::vector<std::pair<ProtocolId, Factory>> factories_;
};

/// Registers the three built-in protocols (idempotent).
void register_builtin_protocols();

}  // namespace khz::consistency
