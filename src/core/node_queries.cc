// Attribute and location query client operations for core::Node
// (getattr / setattr / locate / migrate / replicate_to). Split out of
// node_ops.cc so each core TU stays one subsystem.
#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "core/node.h"

namespace khz::core {

using consistency::LockContext;
using consistency::LockMode;
using consistency::ProtocolId;
using consistency::is_write;
using net::Message;
using net::MsgType;
using storage::PageState;

namespace {
ErrorCode from_wire(std::uint8_t b) { return static_cast<ErrorCode>(b); }
}  // namespace

// ---------------------------------------------------------------------------
// Attributes and location queries
// ---------------------------------------------------------------------------

void Node::getattr(const GlobalAddress& base, AttrCb cb) {
  // Root span + latency histogram + slow-op watch, same shape as
  // reserve()/lock(): getattr is the op the overload bench saturates with,
  // so its tail is exactly where the flight recorder earns its keep.
  const Micros t0 = now();
  const obs::TraceContext span = tracer_.begin_span("op:getattr");
  obs::ScopedTraceContext scope(tracer_, span);
  const OpWatch watch = watch_op();
  cb = [this, t0, watch, span, cb = std::move(cb)](Result<RegionAttrs> r) {
    if (r.ok()) ins_.getattr_us->record(now() - t0);
    tracer_.end_span(span);
    maybe_record_slow_op("getattr", watch, span.trace_id);
    cb(std::move(r));
  };
  resolver_.resolve(base, [this, base, cb = std::move(cb)](
                    Result<RegionDescriptor> r) mutable {
    if (!r) {
      cb(r.error());
      return;
    }
    const RegionDescriptor desc = r.value();
    if (desc.primary_home() == config_.id) {
      cb(desc.attrs);
      return;
    }
    Encoder e;
    e.addr(base);
    engine_.call(desc.home_nodes, MsgType::kGetAttrReq, std::move(e).take(),
              [cb = std::move(cb)](bool ok, Decoder& d) mutable {
                if (!ok) {
                  cb(ErrorCode::kUnreachable);
                  return;
                }
                const ErrorCode err = from_wire(d.u8());
                if (err != ErrorCode::kOk) {
                  cb(err);
                  return;
                }
                cb(RegionAttrs::decode(d));
              });
  });
}

void Node::setattr(const GlobalAddress& base, const RegionAttrs& attrs,
                   StatusCb cb) {
  resolver_.resolve(base, [this, base, attrs, cb = std::move(cb)](
                    Result<RegionDescriptor> r) mutable {
    if (!r) {
      cb(r.error());
      return;
    }
    const RegionDescriptor desc = r.value();
    Encoder e;
    e.addr(base);
    attrs.encode(e);
    e.u32(config_.principal);
    engine_.call(desc.home_nodes, MsgType::kSetAttrReq, std::move(e).take(),
              [this, base, cb = std::move(cb)](bool ok, Decoder& d) mutable {
                if (!ok) {
                  cb(ErrorCode::kUnreachable);
                  return;
                }
                const ErrorCode err = from_wire(d.u8());
                if (err == ErrorCode::kOk) regions_.invalidate(base);
                cb(err == ErrorCode::kOk ? Status{} : Status{err});
              });
  });
}

void Node::locate(const GlobalAddress& addr, LocateCb cb) {
  resolver_.resolve(addr, [this, addr, cb = std::move(cb)](
                    Result<RegionDescriptor> r) mutable {
    if (!r) {
      cb(r.error());
      return;
    }
    const RegionDescriptor desc = r.value();
    Encoder e;
    e.addr(addr);
    engine_.call(desc.home_nodes, MsgType::kLocateReq, std::move(e).take(),
              [cb = std::move(cb)](bool ok, Decoder& d) mutable {
                if (!ok) {
                  cb(ErrorCode::kUnreachable);
                  return;
                }
                const ErrorCode err = from_wire(d.u8());
                if (err != ErrorCode::kOk) {
                  cb(err);
                  return;
                }
                std::vector<NodeId> nodes;
                const std::uint32_t n = d.u32();
                for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
                  nodes.push_back(d.u32());
                }
                cb(std::move(nodes));
              });
  });
}

void Node::migrate(const GlobalAddress& base, NodeId new_home, StatusCb cb) {
  resolver_.resolve(base, [this, base, new_home, cb = std::move(cb)](
                    Result<RegionDescriptor> r) mutable {
    if (!r) {
      cb(r.error());
      return;
    }
    const RegionDescriptor desc = r.value();
    if (desc.range.base != base) {
      cb(ErrorCode::kBadArgument);
      return;
    }
    if (!desc.attrs.acl.allows(config_.principal, /*write=*/true)) {
      cb(ErrorCode::kAccessDenied);
      return;
    }
    Encoder e;
    e.addr(base);
    e.u32(new_home);
    engine_.call(desc.home_nodes, MsgType::kMigrateReq, std::move(e).take(),
              [this, base, cb = std::move(cb)](bool ok, Decoder& d) mutable {
                if (!ok) {
                  cb(ErrorCode::kUnreachable);
                  return;
                }
                const ErrorCode err = from_wire(d.u8());
                if (err == ErrorCode::kOk) regions_.invalidate(base);
                cb(err == ErrorCode::kOk ? Status{} : Status{err});
              });
  });
}

void Node::replicate_to(const GlobalAddress& base, NodeId target,
                        StatusCb cb) {
  resolver_.resolve(base, [this, base, target, cb = std::move(cb)](
                    Result<RegionDescriptor> r) mutable {
    if (!r) {
      cb(r.error());
      return;
    }
    Encoder e;
    e.addr(base);
    e.u32(target);
    engine_.call(r.value().home_nodes, MsgType::kReplicateToReq,
              std::move(e).take(),
              [cb = std::move(cb)](bool ok, Decoder& d) mutable {
                if (!ok) {
                  cb(ErrorCode::kUnreachable);
                  return;
                }
                const ErrorCode err = from_wire(d.u8());
                cb(err == ErrorCode::kOk ? Status{} : Status{err});
              });
  });
}

}  // namespace khz::core
