#include "net/message.h"

namespace khz::net {

std::string_view to_string(MsgType t) {
  switch (t) {
    case MsgType::kJoinReq: return "JoinReq";
    case MsgType::kJoinResp: return "JoinResp";
    case MsgType::kNodeListGossip: return "NodeListGossip";
    case MsgType::kLeave: return "Leave";
    case MsgType::kReserveReq: return "ReserveReq";
    case MsgType::kReserveResp: return "ReserveResp";
    case MsgType::kUnreserveReq: return "UnreserveReq";
    case MsgType::kUnreserveResp: return "UnreserveResp";
    case MsgType::kSpaceReq: return "SpaceReq";
    case MsgType::kSpaceResp: return "SpaceResp";
    case MsgType::kDescLookupReq: return "DescLookupReq";
    case MsgType::kDescLookupResp: return "DescLookupResp";
    case MsgType::kHintQueryReq: return "HintQueryReq";
    case MsgType::kHintQueryResp: return "HintQueryResp";
    case MsgType::kHintPublish: return "HintPublish";
    case MsgType::kClusterWalkReq: return "ClusterWalkReq";
    case MsgType::kClusterWalkResp: return "ClusterWalkResp";
    case MsgType::kAllocReq: return "AllocReq";
    case MsgType::kAllocResp: return "AllocResp";
    case MsgType::kFreeReq: return "FreeReq";
    case MsgType::kFreeResp: return "FreeResp";
    case MsgType::kGetAttrReq: return "GetAttrReq";
    case MsgType::kGetAttrResp: return "GetAttrResp";
    case MsgType::kSetAttrReq: return "SetAttrReq";
    case MsgType::kSetAttrResp: return "SetAttrResp";
    case MsgType::kPageFetchReq: return "PageFetchReq";
    case MsgType::kPageFetchResp: return "PageFetchResp";
    case MsgType::kReplicaPush: return "ReplicaPush";
    case MsgType::kReplicaDrop: return "ReplicaDrop";
    case MsgType::kPageBatchFetchReq: return "PageBatchFetchReq";
    case MsgType::kPageBatchFetchResp: return "PageBatchFetchResp";
    case MsgType::kCm: return "Cm";
    case MsgType::kMapMutateReq: return "MapMutateReq";
    case MsgType::kMapMutateResp: return "MapMutateResp";
    case MsgType::kLocateReq: return "LocateReq";
    case MsgType::kLocateResp: return "LocateResp";
    case MsgType::kPing: return "Ping";
    case MsgType::kPong: return "Pong";
    case MsgType::kObjInvokeReq: return "ObjInvokeReq";
    case MsgType::kObjInvokeResp: return "ObjInvokeResp";
    case MsgType::kMigrateReq: return "MigrateReq";
    case MsgType::kMigrateResp: return "MigrateResp";
    case MsgType::kMigrateData: return "MigrateData";
    case MsgType::kMigrateDataResp: return "MigrateDataResp";
    case MsgType::kReplicateToReq: return "ReplicateToReq";
    case MsgType::kReplicateToResp: return "ReplicateToResp";
    case MsgType::kNack: return "Nack";
    case MsgType::kStatsReq: return "StatsReq";
    case MsgType::kStatsResp: return "StatsResp";
    case MsgType::kHintSyncReq: return "HintSyncReq";
    case MsgType::kHintSyncResp: return "HintSyncResp";
  }
  return "?";
}

bool is_response(MsgType t) {
  switch (t) {
    case MsgType::kJoinResp:
    case MsgType::kReserveResp:
    case MsgType::kUnreserveResp:
    case MsgType::kSpaceResp:
    case MsgType::kDescLookupResp:
    case MsgType::kHintQueryResp:
    case MsgType::kClusterWalkResp:
    case MsgType::kAllocResp:
    case MsgType::kFreeResp:
    case MsgType::kGetAttrResp:
    case MsgType::kSetAttrResp:
    case MsgType::kPageFetchResp:
    case MsgType::kMapMutateResp:
    case MsgType::kLocateResp:
    case MsgType::kObjInvokeResp:
    case MsgType::kMigrateResp:
    case MsgType::kMigrateDataResp:
    case MsgType::kReplicateToResp:
    case MsgType::kPong:
    // Backpressure replies are rpc_id-correlated like responses; the
    // engine turns them into backoff + candidate rotation.
    case MsgType::kNack:
    case MsgType::kStatsResp:
    case MsgType::kHintSyncResp:
      return true;
    default:
      return false;
  }
}

Bytes Message::encode() const {
  Encoder e;
  e.u16(static_cast<std::uint16_t>(type));
  e.u32(src);
  e.u32(dst);
  e.u64(rpc_id);
  e.u64(trace_id);
  e.u64(span_id);
  e.u64(deadline);
  e.bytes(payload);
  return std::move(e).take();
}

Bytes Message::encode_framed() const {
  Encoder e;
  e.u32(0);  // frame-length placeholder, patched below
  e.u16(static_cast<std::uint16_t>(type));
  e.u32(src);
  e.u32(dst);
  e.u64(rpc_id);
  e.u64(trace_id);
  e.u64(span_id);
  e.u64(deadline);
  e.bytes(payload);
  Bytes out = std::move(e).take();
  const auto body_len = static_cast<std::uint32_t>(out.size() - 4);
  for (std::size_t i = 0; i < 4; ++i) {
    out[i] = static_cast<std::uint8_t>(body_len >> (8 * i));
  }
  return out;
}

bool Message::decode(std::span<const std::uint8_t> wire, Message& out) {
  Decoder d(wire);
  out.type = static_cast<MsgType>(d.u16());
  out.src = d.u32();
  out.dst = d.u32();
  out.rpc_id = d.u64();
  out.trace_id = d.u64();
  out.span_id = d.u64();
  out.deadline = d.u64();
  out.payload = d.bytes();
  return d.at_end();
}

}  // namespace khz::net
