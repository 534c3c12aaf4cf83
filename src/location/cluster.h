// Cluster-manager role state (paper, Section 3.1).
//
// "Each cluster has one or more designated cluster managers, nodes
// responsible for being aware of other cluster locations, caching hint
// information about regions stored in the local cluster, and representing
// the local cluster during inter-cluster communication... Each cluster
// manager maintains hints of the sizes of free address space (total size,
// maximum free region size, etc) managed by other nodes in its cluster."
//
// Hints are per-(region, node) records stamped with the publisher's clock;
// a retraction is a tombstone, not an erase, so it can win a newest-wins
// anti-entropy merge against a stale publish on a peer manager (the hint
// caches self-heal under churn instead of diverging until overwritten).
// It is bookkeeping plus the signed wire form of a record set; the message
// handling and the sync timer live in core::Node.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "common/global_address.h"
#include "common/serialize.h"
#include "common/types.h"

namespace khz::location {

class ClusterState {
 public:
  /// One (region base, node) hint record as exchanged by anti-entropy.
  struct Entry {
    GlobalAddress base;
    std::uint64_t size = 0;
    NodeId node = kNoNode;
    Micros stamp = 0;
    bool retracted = false;

    friend bool operator==(const Entry&, const Entry&) = default;
  };

  /// --- location hints: region base -> nodes believed to cache/home it ---
  /// Local publishes/retracts are authoritative: they always apply, stamped
  /// `now` (bumped past any existing stamp so anti-entropy propagates them).
  void publish(const GlobalAddress& base, std::uint64_t size, NodeId node,
               Micros now = 0);
  void retract(const GlobalAddress& base, NodeId node, Micros now = 0);

  /// Failure-detector verdict: tombstone `node` out of every hint, so no
  /// lookup is steered at a peer the detector has declared down and the
  /// retraction propagates to other managers on the next sync round.
  /// Returns the number of records retracted.
  std::size_t retract_node(NodeId node, Micros now);

  /// Nodes believed to hold the region containing `addr` (may be stale).
  [[nodiscard]] std::vector<NodeId> hint(const GlobalAddress& addr) const;

  /// Every hint record, tombstones included, in (base, node) order — the
  /// anti-entropy exchange unit.
  [[nodiscard]] std::vector<Entry> entries() const;

  /// Order-independent FNV-1a digest over the full record set (tombstones
  /// included). Two managers with equal digests need not exchange entries.
  [[nodiscard]] std::uint64_t digest() const;

  /// digest() of an arbitrary record set — used to check that a decoded
  /// anti-entropy payload matches its signed digest.
  [[nodiscard]] static std::uint64_t digest_of(const std::vector<Entry>& in);

  /// The anti-entropy wire form of `in` (kHintSyncReq/Resp): a u64
  /// signature, digest_of(in) mixed with `signer`'s id, then u32 n and n
  /// records of {addr base, u64 size, u32 node, u64 stamp, u8 retracted}.
  /// A keyed MAC in spirit; the sim has no key distribution, so the id is
  /// the key.
  static void encode_signed(Encoder& e, const std::vector<Entry>& in,
                            NodeId signer);
  /// Reads what encode_signed wrote. nullopt when the payload is malformed
  /// or its records do not hash to the signature `signer` would have made.
  [[nodiscard]] static std::optional<std::vector<Entry>> decode_signed(
      Decoder& d, NodeId signer);

  /// Newest-wins merge of a peer's records: a foreign record replaces the
  /// local one only when strictly newer. Records naming a node `is_down`
  /// reports as down merge as retractions regardless of their flag — a
  /// peer's stale optimism never resurrects a locally-detected failure.
  /// Returns the number of records updated.
  std::size_t merge(const std::vector<Entry>& in,
                    const std::function<bool(NodeId)>& is_down = {});

  /// --- free-space hints: node -> unreserved pool size it reported ---
  /// Offers older than `ttl` are ignored by best_pool_node (0 = no expiry).
  void set_free_space_ttl(Micros ttl);
  void report_free_space(NodeId node, std::uint64_t pool_bytes,
                         Micros now = 0);
  [[nodiscard]] std::uint64_t free_space_of(NodeId node) const;
  /// Node with the largest unexpired reported pool >= min_bytes, if any.
  [[nodiscard]] std::optional<NodeId> best_pool_node(std::uint64_t min_bytes,
                                                     Micros now = 0) const;

  /// Regions with at least one live (non-retracted) hinted node.
  [[nodiscard]] std::size_t hint_count() const;

  /// Drops all hint and free-space state, tombstones included (tests
  /// simulate a manager whose hint cache was lost).
  void clear() {
    hints_.clear();
    free_space_.clear();
  }

 private:
  struct Record {
    Micros stamp = 0;
    bool retracted = false;
  };
  struct Hint {
    std::uint64_t size = 0;
    std::map<NodeId, Record> nodes;
  };
  struct SpaceOffer {
    std::uint64_t bytes = 0;
    Micros stamp = 0;
  };
  /// Applies one record; returns true if it changed state.
  bool apply(const GlobalAddress& base, std::uint64_t size, NodeId node,
             Micros stamp, bool retracted);

  std::map<GlobalAddress, Hint> hints_;  // keyed by region base
  std::map<NodeId, SpaceOffer> free_space_;
  Micros free_space_ttl_ = 0;
};

}  // namespace khz::location
