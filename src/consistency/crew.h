// CREW: Concurrent Read Exclusive Write (paper, Section 5).
//
// "The only consistency model we currently support is a Concurrent Read
// Exclusive Write (CREW) protocol." — implemented here as a home-based
// (directory) invalidation protocol in the style of Li & Hudak, which is
// exactly the shape of Figure 2: the requester contacts the page's home,
// the home coordinates with the current owner / copyset, and data plus
// (for writes) ownership flow back to the requester.
//
// Per-page directory state (owner + copyset) lives at the page's home node
// in the shared PageDirectory. The protocol:
//   * read lock: local valid copy -> immediate grant; otherwise ReadReq to
//     home; home serves its copy or has the exclusive owner downgrade and
//     supply one (the 13 steps of Figure 2).
//   * write lock: local exclusive ownership -> immediate grant; otherwise
//     WriteReq to home; home invalidates the copyset, transfers ownership
//     and current data to the requester.
//   * conflicting grants are delayed, not refused: invalidations and
//     downgrades wait for local lock holders to release (Section 3.3, "it
//     delays granting the locks until the conflict is resolved").
//   * failures: requester retries the home then the region's alternate
//     homes; the home times out unresponsive sharers/owners and falls back
//     to its own latest copy.
#pragma once

#include <deque>
#include <map>
#include <set>

#include "consistency/cm.h"

namespace khz::consistency {

class CrewManager final : public ConsistencyManager {
 public:
  explicit CrewManager(CmHost& host)
      : host_(host),
        round_us_(&host.metrics().histogram("crew.round_us")),
        batch_pages_(&host.metrics().histogram("crew.batch_pages")),
        batch_rpc_us_(&host.metrics().histogram("crew.batch_rpc_us")) {}

  [[nodiscard]] ProtocolId id() const override { return ProtocolId::kCrew; }
  [[nodiscard]] std::string_view name() const override { return "crew"; }

  void acquire(const GlobalAddress& page, LockMode mode,
               GrantCallback done) override;
  void prefetch(const GlobalAddress& page, LockMode mode,
                GrantCallback done) override;
  void release(const GlobalAddress& page, LockMode mode, bool dirty) override;
  void on_message(NodeId from, const GlobalAddress& page,
                  Decoder& d) override;
  void on_batch_fetch(NodeId from, Decoder& d) override;
  void on_batch_grant(NodeId from, Decoder& d) override;
  bool on_evict(const GlobalAddress& page) override;
  void on_node_down(NodeId node) override;

  /// Most page entries carried by one kPageBatchFetchReq; bigger fetch
  /// lists split into several batches.
  static constexpr std::size_t kMaxBatchPages = 64;
  /// Soft byte cap per kPageBatchFetchResp chunk: the home flushes the
  /// accumulated grants once the payload crosses this line.
  static constexpr std::size_t kBatchRespBytesCap = 1u << 20;

  /// Protocol message subtypes (first byte of the CM payload).
  enum class Sub : std::uint8_t {
    kReadReq = 1,    // requester -> home
    kWriteReq,       // requester -> home
    kData,           // -> requester: version, bytes (grants shared copy)
    kOwner,          // -> requester: version, bytes (grants ownership)
    kInvalidate,     // home -> sharer
    kInvAck,         // sharer -> home
    kDowngradeReq,   // home -> owner: carries requester id
    kDowngradeDone,  // owner -> home: version, bytes (home keeps a copy)
    kXferReq,        // home -> owner: carries requester id
    kXferDone,       // owner -> home: version
    kNack,           // home -> requester: ErrorCode
    kDropCopy,       // sharer -> home: I discarded my copy (eviction)
  };

 private:
  struct Waiter {
    LockMode mode;
    GrantCallback done;
    /// Prefetch waiters only need the page in a grantable state (data /
    /// ownership present); they complete without taking a hold, so they
    /// are grantable even while conflicting local holds exist.
    bool prefetch = false;
  };
  struct RemoteReq {
    NodeId from;
    LockMode mode;
  };
  struct PageState {
    // --- requester side ---
    std::deque<Waiter> waiters;
    bool request_outstanding = false;
    LockMode requested_mode = LockMode::kNone;
    std::uint64_t request_timer = 0;
    Micros request_sent_at = 0;  // for the crew.round_us histogram
    int retries = 0;
    /// An invalidate arrived while this read round's data was still in
    /// flight: that data is stale on arrival and is asked for again.
    bool invalidated_in_flight = false;
    // --- home side ---
    bool busy = false;  // one directory transaction at a time
    std::deque<RemoteReq> pending;
    std::set<NodeId> awaiting_inv_acks;
    NodeId in_flight_requester = kNoNode;
    LockMode in_flight_mode = LockMode::kNone;
    std::uint64_t home_timer = 0;
    // --- holder side ---
    bool deferred_invalidate = false;  // ack home once local holds drain
    NodeId deferred_inv_home = kNoNode;
    NodeId deferred_downgrade_to = kNoNode;  // serve reader after release
    NodeId deferred_xfer_to = kNoNode;       // transfer owner after release
  };

  PageState& state(const GlobalAddress& page) { return pages_[page]; }

  // Requester side.
  void try_grant_local(const GlobalAddress& page);
  void send_request(const GlobalAddress& page, LockMode mode,
                    bool batchable = false);
  void flush_fetch_batches();
  void on_request_timeout(GlobalAddress page);
  /// Fires after the post-timeout backoff; re-issues the round unless a
  /// late grant already served the waiters.
  void resend_request(const GlobalAddress& page);
  void fail_waiters(const GlobalAddress& page, ErrorCode e);

  // Home side. When `batch` is non-null, home_serve_data /
  // home_grant_ownership append the grant to the batch-response encoder
  // instead of sending a standalone kData/kOwner message.
  void home_handle(const GlobalAddress& page, NodeId from, LockMode mode);
  void home_start(const GlobalAddress& page, NodeId from, LockMode mode);
  void home_continue_after_invs(const GlobalAddress& page);
  void home_finish(const GlobalAddress& page);
  void home_drain_queue(const GlobalAddress& page);
  void home_serve_data(const GlobalAddress& page, NodeId to,
                       Encoder* batch = nullptr);
  void home_grant_ownership(const GlobalAddress& page, NodeId to,
                            Encoder* batch = nullptr);
  void on_home_timeout(GlobalAddress page);

  // Holder side.
  void holder_apply_invalidate(const GlobalAddress& page, NodeId home);
  void holder_apply_downgrade(const GlobalAddress& page, NodeId requester);
  void holder_apply_xfer(const GlobalAddress& page, NodeId requester);
  void maybe_run_deferred(const GlobalAddress& page);

  void send(NodeId to, const GlobalAddress& page, Sub sub,
            const std::function<void(Encoder&)>& body = {});
  void install_data(const GlobalAddress& page, Version version, Bytes data,
                    storage::PageState new_state);

  /// Records how long each home round trip (request -> Data/Owner/Nack)
  /// took, the protocol-level cost of Figure 2's steps 5-10.
  void finish_round(PageState& st);

  CmHost& host_;
  obs::Histogram* round_us_;
  obs::Histogram* batch_pages_;
  obs::Histogram* batch_rpc_us_;
  std::map<GlobalAddress, PageState> pages_;

  /// Same-turn request coalescing: first-attempt fetches issued within one
  /// execution turn (e.g. a multi-page lock's prefetch fan-out) accumulate
  /// here per target and flush as one kPageBatchFetchReq on a zero-delay
  /// timer. Retransmissions bypass the buffer (per-page legacy path).
  struct PendingFetch {
    GlobalAddress page;
    LockMode mode;
  };
  std::map<NodeId, std::vector<PendingFetch>> fetch_batch_;
  bool fetch_flush_scheduled_ = false;
  std::uint64_t next_batch_seq_ = 1;
  /// Send time per in-flight batch seq (for crew.batch_rpc_us); entries
  /// die on the first response chunk or get pruned once the map is large.
  std::map<std::uint64_t, Micros> batch_sent_at_;
};

}  // namespace khz::consistency
