#include "core/admission.h"

#include <limits>
#include <utility>

namespace khz::core {

namespace {

/// Sort key for the client EDF queue: no deadline sorts after every real
/// one.
std::uint64_t edf_key(const net::Message& m) {
  return m.deadline == 0 ? std::numeric_limits<std::uint64_t>::max()
                         : m.deadline;
}

}  // namespace

AdmissionController::AdmissionController(Host& host, AdmissionConfig config,
                                         obs::MetricsRegistry& metrics)
    : host_(host), config_(config) {
  ins_.enq_protocol = &metrics.counter("admission.enqueued.protocol");
  ins_.enq_client = &metrics.counter("admission.enqueued.client");
  ins_.enq_replication = &metrics.counter("admission.enqueued.replication");
  ins_.shed_protocol = &metrics.counter("admission.shed.protocol");
  ins_.shed_client = &metrics.counter("admission.shed.client");
  ins_.shed_replication = &metrics.counter("admission.shed.replication");
  ins_.shed_total = &metrics.counter("admission.shed");
  ins_.nacks_sent = &metrics.counter("admission.nacks_sent");
  ins_.expired_in_queue = &metrics.counter("admission.expired_in_queue");
  ins_.depth_protocol = &metrics.gauge("admission.depth.protocol");
  ins_.depth_client = &metrics.gauge("admission.depth.client");
  ins_.depth_replication = &metrics.gauge("admission.depth.replication");
  ins_.queue_us = &metrics.histogram("admission.queue_us");
}

OpClass AdmissionController::classify(net::MsgType t) {
  using net::MsgType;
  switch (t) {
    // Protocol rounds: other nodes block on these grants; they also keep
    // FIFO order within the class (the CREW protocols are
    // ordering-sensitive across a connection).
    case MsgType::kCm:
    case MsgType::kPageFetchReq:
    case MsgType::kPageBatchFetchReq:
    case MsgType::kPageBatchFetchResp:
    // Telemetry scrapes ride the protocol class on purpose: the whole point
    // of scraping is to observe a node in trouble, so the scrape must drain
    // ahead of the backed-up client queue it is trying to measure.
    case MsgType::kStatsReq:
    // Hint anti-entropy keeps location metadata converging under exactly
    // the overload/churn conditions that back up the client queue.
    case MsgType::kHintSyncReq:
      return OpClass::kProtocol;

    // Copyset maintenance: one-way pushes that must never sit on the
    // admission-critical path (write-behind semantics).
    case MsgType::kReplicaPush:
    case MsgType::kReplicaDrop:
      return OpClass::kReplication;

    // rpc_id-bearing client operations: sheddable with backpressure.
    case MsgType::kReserveReq:
    case MsgType::kUnreserveReq:
    case MsgType::kSpaceReq:
    case MsgType::kMapMutateReq:
    case MsgType::kDescLookupReq:
    case MsgType::kHintQueryReq:
    case MsgType::kClusterWalkReq:
    case MsgType::kAllocReq:
    case MsgType::kFreeReq:
    case MsgType::kGetAttrReq:
    case MsgType::kSetAttrReq:
    case MsgType::kLocateReq:
    case MsgType::kObjInvokeReq:
    case MsgType::kMigrateReq:
    case MsgType::kMigrateData:
    case MsgType::kReplicateToReq:
      return OpClass::kClient;

    // Everything else — responses (the engine owns them), liveness probes
    // (queueing delay would fabricate down verdicts), membership and
    // one-way hint gossip — bypasses admission.
    default:
      return OpClass::kBypass;
  }
}

std::size_t AdmissionController::limit_for(OpClass c) const {
  switch (c) {
    case OpClass::kProtocol: return config_.protocol_queue_limit;
    case OpClass::kClient: return config_.client_queue_limit;
    case OpClass::kReplication: return config_.replication_queue_limit;
    default: return 0;
  }
}

std::size_t AdmissionController::depth(OpClass c) const {
  switch (c) {
    case OpClass::kProtocol: return protocol_.size();
    case OpClass::kClient: return client_.size();
    case OpClass::kReplication: return replication_.size();
    default: return 0;
  }
}

void AdmissionController::update_depth_gauges() {
  ins_.depth_protocol->set(static_cast<std::int64_t>(protocol_.size()));
  ins_.depth_client->set(static_cast<std::int64_t>(client_.size()));
  ins_.depth_replication->set(
      static_cast<std::int64_t>(replication_.size()));
}

bool AdmissionController::offer(net::Message& msg) {
  const OpClass c = classify(msg.type);
  const std::size_t limit = limit_for(c);
  if (c == OpClass::kBypass || limit == 0) return false;

  Pending p{std::move(msg), host_.now()};
  switch (c) {
    case OpClass::kProtocol:
      if (protocol_.size() >= limit) {
        // Tail drop: queued protocol messages keep their FIFO order, the
        // newest arrival is the loss. Protocol timers re-drive it exactly
        // like a dropped packet.
        shed(std::move(p), c);
      } else {
        protocol_.push_back(std::move(p));
        ins_.enq_protocol->inc();
      }
      break;
    case OpClass::kClient:
      enqueue_client(std::move(p));
      break;
    case OpClass::kReplication:
      if (replication_.size() >= limit) {
        // Drop oldest: the newest push carries the freshest page state.
        shed(std::move(replication_.front()), c);
        replication_.pop_front();
      }
      replication_.push_back(std::move(p));
      ins_.enq_replication->inc();
      break;
    default:
      return false;
  }
  update_depth_gauges();
  arm_pump();
  return true;
}

void AdmissionController::enqueue_client(Pending p) {
  const std::size_t limit = limit_for(OpClass::kClient);
  if (client_.size() >= limit) {
    // Deadline-sorted shedding: the victim is whichever request — queued
    // or arriving — can wait the longest (latest deadline; no deadline
    // loses to any deadline). The urgent work keeps its place.
    auto worst = std::prev(client_.end());
    if (edf_key(p.msg) >= worst->first) {
      shed(std::move(p), OpClass::kClient);
      return;
    }
    Pending victim = std::move(worst->second);
    client_.erase(worst);
    shed(std::move(victim), OpClass::kClient);
  }
  client_.emplace(edf_key(p.msg), std::move(p));
  ins_.enq_client->inc();
}

void AdmissionController::shed(Pending p, OpClass c) {
  ins_.shed_total->inc();
  switch (c) {
    case OpClass::kProtocol: ins_.shed_protocol->inc(); break;
    case OpClass::kClient: ins_.shed_client->inc(); break;
    case OpClass::kReplication: ins_.shed_replication->inc(); break;
    default: break;
  }
  if (p.msg.rpc_id != 0) {
    ins_.nacks_sent->inc();
    host_.nack(p.msg);
  }
}

void AdmissionController::arm_pump() {
  if (pump_timer_ != 0) return;
  // service_us paces the drain; 0 drains on the next tick (the hop through
  // the scheduler keeps "handlers are never re-entered" intact).
  pump_timer_ = host_.schedule(config_.service_us, [this] {
    pump_timer_ = 0;
    pump();
  });
}

bool AdmissionController::pop_next(Pending& out) {
  // Strict priority: protocol rounds unblock other nodes' grants, client
  // ops pay the bills, replication is deferrable by construction.
  if (!protocol_.empty()) {
    out = std::move(protocol_.front());
    protocol_.pop_front();
    return true;
  }
  while (!client_.empty()) {
    auto first = client_.begin();
    Pending p = std::move(first->second);
    client_.erase(first);
    if (p.msg.deadline != 0 &&
        static_cast<std::uint64_t>(host_.now()) > p.msg.deadline) {
      // Its budget expired while it queued; serving it now computes an
      // answer nobody is waiting for. Counted separately from shed — this
      // is the queueing delay itself doing the damage.
      ins_.expired_in_queue->inc();
      continue;
    }
    out = std::move(p);
    return true;
  }
  if (!replication_.empty()) {
    out = std::move(replication_.front());
    replication_.pop_front();
    return true;
  }
  return false;
}

void AdmissionController::pump() {
  Pending p;
  if (config_.service_us == 0) {
    // Unpaced: drain everything queued right now in one tick.
    while (pop_next(p)) {
      ins_.queue_us->record(host_.now() - p.enqueued_at);
      host_.dispatch(p.msg);
    }
    update_depth_gauges();
    if (total_depth() > 0) arm_pump();  // dispatch enqueued more work
    return;
  }
  if (pop_next(p)) {
    ins_.queue_us->record(host_.now() - p.enqueued_at);
    host_.dispatch(p.msg);
  }
  update_depth_gauges();
  if (total_depth() > 0) arm_pump();
}

void AdmissionController::shutdown() {
  if (pump_timer_ != 0) {
    host_.cancel(pump_timer_);
    pump_timer_ = 0;
  }
  protocol_.clear();
  client_.clear();
  replication_.clear();
  update_depth_gauges();
}

}  // namespace khz::core
