// Inter-node message envelope.
//
// Every byte that crosses between Khazana daemons is a Message: a typed,
// optionally RPC-correlated envelope around a wire-format payload. The
// payload schemas live with the subsystems that own them (core/protocol.h,
// consistency/*), keeping this layer ignorant of Khazana semantics, exactly
// as the paper's messaging layer is the only system-dependent component
// (Section 5).
#pragma once

#include <cstdint>
#include <string_view>

#include "common/serialize.h"
#include "common/types.h"

namespace khz::net {

enum class MsgType : std::uint16_t {
  // Membership
  kJoinReq = 1,     // new node -> genesis node: admit me (addr + manager bit)
  kJoinResp,        // genesis -> joiner: current member list + manager set
  kNodeListGossip,  // one-way fanout: membership delta to every known peer
  kLeave,  // one-way: "I am departing; drop me from membership"

  // Address space management (client-node <-> home/manager node)
  kReserveReq,     // any node -> cluster manager: carve a region of N bytes
  kReserveResp,    // manager -> requester: region base or error
  kUnreserveReq,   // any node -> region home: return the region's space
  kUnreserveResp,  // home -> requester: acceptance (release-type op)
  kSpaceReq,   // ask cluster manager for a large chunk of unreserved space
  kSpaceResp,  // manager -> requester: granted slab (pool refill)

  // Region descriptor / location lookup
  kDescLookupReq,  // resolver -> candidate home: send me the descriptor
  kDescLookupResp, // home -> resolver: descriptor, or kNotFound if not home
  kHintQueryReq,   // ask cluster manager: who caches region at addr?
  kHintQueryResp,  // manager -> requester: hinted home list (may be stale)
  kHintPublish,    // one-way: "I now cache / no longer cache this region"
  kClusterWalkReq, // broadcast probe: "do you home/cache this region?"
  kClusterWalkResp,  // peer -> prober: descriptor if homed/cached here

  // Storage allocation
  kAllocReq,   // any node -> region home: back this range with storage
  kAllocResp,  // home -> requester: success or kNoSpace
  kFreeReq,    // any node -> region home: drop backing for this range
  kFreeResp,   // home -> requester: acceptance (release-type op)

  // Attributes
  kGetAttrReq,   // any node -> region home: send the attribute block
  kGetAttrResp,  // home -> requester: RegionAttrs
  kSetAttrReq,   // any node -> region home: replace the attribute block
  kSetAttrResp,  // home -> requester: acceptance (home journals the change)

  // Page data plane
  kPageFetchReq,   // CM/requester -> page home: send bytes (and/or ownership)
  kPageFetchResp,  // home -> requester: page bytes + version, or Nack
  kReplicaPush,     // one-way: maintain min-replica count / eviction push
  kReplicaDrop,     // one-way: "I dropped my copy of this page"
  // Batched data plane: one message carries fetches/grants for a list of
  // pages (multi-page lock pipeline). Payload: u8 protocol id, then the
  // protocol's batch encoding. One-way in both directions — the per-page
  // protocol timers provide the retry path, not the RPC layer.
  kPageBatchFetchReq,
  kPageBatchFetchResp,

  // Consistency-manager channel: opaque protocol payload (u8 protocol id +
  // protocol encoding), delivered to the page's CM on the receiving node.
  kCm,

  // Address-map mutation (routed to the subtree's manager node)
  kMapMutateReq,   // any node -> map manager: insert/erase/update-homes entry
  kMapMutateResp,  // manager -> requester: applied (release-type: retried)

  // "Where is this datum?" (explicit location query, Section 4.2)
  kLocateReq,   // any node -> cluster manager/home: resolve addr to homes
  kLocateResp,  // responder -> requester: current home-node list

  // Failure detection
  kPing,  // detector -> peer: liveness probe (untraced background traffic)
  kPong,  // peer -> detector: "alive"; 3 missed pongs => marked down

  // Distributed-object runtime RPC (Section 4.2)
  kObjInvokeReq,   // caller node -> replica holder: run method remotely
  kObjInvokeResp,  // holder -> caller: serialized return value or error

  // Region home migration (Section 3.2 anticipates migrating homes;
  // Section 8 lists migration policies as ongoing work)
  kMigrateReq,   // client/any node -> current home: please move to X
  kMigrateResp,  // old home -> requester: hand-off completed or error
  kMigrateData,  // old home -> new home: descriptor + page state
  kMigrateDataResp,  // new home -> old home: installed; old home demotes

  // Client guidance: "push copies of this region onto node X"
  kReplicateToReq,   // any node -> region home: add X to the copy set
  kReplicateToResp,  // home -> requester: replica pushed and recorded

  // Admission-control backpressure: the receiver shed the request before
  // handling it (queue full). Correlated by rpc_id like a response; the
  // payload carries a u8 ErrorCode (kOverloaded). The issuing engine backs
  // off and rotates candidates instead of waiting out an attempt timeout.
  kNack,

  // Telemetry scraping (docs/observability.md): any node (or an external
  // khz_stats endpoint) fetches a peer's full metrics registry — counter/
  // gauge values and raw histogram buckets, optionally the time-series ring
  // and slow-op dossiers (request payload: u8 flags). Untraced
  // protocol-class traffic: scrapes must drain ahead of a backed-up client
  // queue (observing an overloaded node is exactly when scraping matters)
  // without polluting the trace rings they export.
  kStatsReq,
  kStatsResp,  // u8 status, u32 node, u64 now, u8 flags, sections per flag

  // Manager hint anti-entropy (docs/location.md): periodic exchange of
  // signed hint-cache record sets, merged newest-wins on both ends.
  // Payload both ways: u64 signed digest, u32 n, n records of
  // {addr base, u64 size, u32 node, u64 stamp, u8 retracted}; the response
  // prefixes a u8 status and sends an empty set when the digests matched.
  kHintSyncReq,
  kHintSyncResp,
};

[[nodiscard]] std::string_view to_string(MsgType t);

struct Message {
  MsgType type{};
  NodeId src = kNoNode;
  NodeId dst = kNoNode;
  /// Non-zero when this message is an RPC request or its response.
  RpcId rpc_id = 0;
  /// Causal trace context (obs::TraceContext flattened into the envelope):
  /// the trace this message belongs to and the span that caused the send.
  /// Zero = untraced. Carried on the wire so a receiver can parent its own
  /// spans under the sender's, giving one cross-node trace per client op.
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  /// Absolute deadline (microseconds on the shared clock) for the operation
  /// this message serves. Zero = no deadline. Carried on the wire so a
  /// server can drop work whose budget has already expired instead of
  /// computing an answer nobody is waiting for, and so nested RPCs issued
  /// while handling this request inherit the remaining budget.
  std::uint64_t deadline = 0;
  Bytes payload;

  [[nodiscard]] std::size_t wire_size() const {
    return 2 + 4 + 4 + 8 + 8 + 8 + 8 + 4 + payload.size();
  }

  /// Flat wire encoding, used by the TCP transport.
  [[nodiscard]] Bytes encode() const;
  /// encode() preceded by the 4-byte little-endian frame length that stream
  /// transports use for delimiting — built in one buffer so the send path
  /// queues (and writes) a single contiguous frame.
  [[nodiscard]] Bytes encode_framed() const;
  static bool decode(std::span<const std::uint8_t> wire, Message& out);
};

/// True for rpc_id-correlated reply types (the issuing RpcEngine consumes
/// them). kNack counts: backpressure replies correlate like responses.
/// kPageBatchFetchResp does NOT: batch grants are one-way data-plane
/// messages replayed through the protocol handlers.
[[nodiscard]] bool is_response(MsgType t);

}  // namespace khz::net
