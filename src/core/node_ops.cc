// Address-space and storage-allocation client operations for core::Node:
// reserve / unreserve / allocate / deallocate. (node.cc holds construction,
// messaging plumbing and the CmHost glue; node_lock.cc the lock pipeline
// and data access.)
#include <algorithm>

#include "core/node.h"

namespace khz::core {

using consistency::ProtocolId;
using net::MsgType;

namespace {
ErrorCode from_wire(std::uint8_t b) { return static_cast<ErrorCode>(b); }

bool valid_page_size(std::uint32_t s) {
  return s >= kDefaultPageSize && s <= (1u << 20) && (s & (s - 1)) == 0;
}

/// The paper treats "desired consistency level" and "consistency protocol"
/// as separate attributes: the level states the requirement, the protocol
/// the mechanism. When a client states only the level, pick the matching
/// built-in protocol; when both are given they must be compatible (a
/// protocol may exceed the requested level, never undercut it).
Result<RegionAttrs> reconcile_consistency(RegionAttrs attrs) {
  // Third-party (registered) protocols are taken at the client's word:
  // the plugin author owns the level guarantee.
  if (attrs.protocol != ProtocolId::kCrew &&
      attrs.protocol != ProtocolId::kRelease &&
      attrs.protocol != ProtocolId::kEventual) {
    return attrs;
  }
  const auto strength = [](ProtocolId p) {
    switch (p) {
      case ProtocolId::kCrew: return 2;
      case ProtocolId::kRelease: return 1;
      case ProtocolId::kEventual: return 0;
    }
    return -1;
  };
  const int required = attrs.level == ConsistencyLevel::kStrict    ? 2
                       : attrs.level == ConsistencyLevel::kRelaxed ? 1
                                                                   : 0;
  if (attrs.protocol == ProtocolId::kCrew &&
      attrs.level != ConsistencyLevel::kStrict) {
    // Protocol left at its default but a weaker level was requested:
    // choose the protocol that implements that level.
    attrs.protocol = attrs.level == ConsistencyLevel::kRelaxed
                         ? ProtocolId::kRelease
                         : ProtocolId::kEventual;
    return attrs;
  }
  if (strength(attrs.protocol) < required) return ErrorCode::kBadArgument;
  return attrs;
}
}  // namespace

// ---------------------------------------------------------------------------
// Address-space management: reserve / unreserve
// ---------------------------------------------------------------------------

std::optional<GlobalAddress> Node::carve_from_pool(std::uint64_t size) {
  // `size` is already page-aligned; carve an aligned base so large-page
  // regions start on a page boundary. Alignment slack stays in the pool.
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    AddressRange& r = pool_[i];
    const GlobalAddress base = r.base;
    if (r.size < size) continue;
    r.base = base.plus(size);
    r.size -= size;
    if (r.size == 0) pool_.erase(pool_.begin() + static_cast<long>(i));
    return base;
  }
  return std::nullopt;
}

std::uint64_t Node::pool_bytes() const {
  std::uint64_t total = 0;
  for (const auto& r : pool_) total += r.size;
  return total;
}

void Node::reserve(std::uint64_t size, const RegionAttrs& raw_attrs,
                   ReserveCb cb) {
  // Root the operation's trace and time it end-to-end; every rpc issued on
  // behalf of this reserve parents under `span` via the ambient context.
  const Micros t0 = now();
  const obs::TraceContext span = tracer_.begin_span("op:reserve");
  obs::ScopedTraceContext scope(tracer_, span);
  const OpWatch watch = watch_op();
  cb = [this, t0, watch, span, cb = std::move(cb)](Result<GlobalAddress> r) {
    if (r.ok()) ins_.reserve_us->record(now() - t0);
    tracer_.end_span(span);
    // After end_span: the dossier harvests the finished span tree.
    maybe_record_slow_op("reserve", watch, span.trace_id);
    cb(std::move(r));
  };
  if (size == 0 || !valid_page_size(raw_attrs.page_size)) {
    cb(ErrorCode::kBadArgument);
    return;
  }
  if (!consistency::ProtocolRegistry::instance().known(raw_attrs.protocol)) {
    cb(ErrorCode::kBadArgument);
    return;
  }
  auto reconciled = reconcile_consistency(raw_attrs);
  if (!reconciled) {
    cb(reconciled.error());
    return;
  }
  const RegionAttrs attrs = reconciled.value();
  const std::uint64_t aligned =
      (size + attrs.page_size - 1) / attrs.page_size * attrs.page_size;

  if (auto base = carve_from_pool(aligned)) {
    finish_reserve({*base, aligned}, attrs, std::move(cb));
    return;
  }

  // Local pool dry: ask the cluster manager for a large chunk of
  // unreserved space to manage locally (Section 3.1).
  const std::uint64_t chunk = std::max<std::uint64_t>(kPoolChunkSize, aligned);
  Encoder e;
  e.u64(chunk);
  // Acquire-side retry policy (attempt count, backoff, steering across the
  // manager set) lives in the engine.
  engine_.call(managers(), MsgType::kSpaceReq, std::move(e).take(),
            [this, aligned, attrs, cb = std::move(cb)](bool ok,
                                                       Decoder& d) mutable {
              if (!ok) {
                cb(ErrorCode::kUnreachable);
                return;
              }
              const ErrorCode err = from_wire(d.u8());
              if (err != ErrorCode::kOk) {
                cb(err);
                return;
              }
              const GlobalAddress base = d.addr();
              const std::uint64_t granted = d.u64();
              pool_.push_back({base, granted});
              meta_.record_pool(granted_bytes_, pool_);
              if (const auto carved = carve_from_pool(aligned)) {
                finish_reserve({*carved, aligned}, attrs, std::move(cb));
              } else {
                cb(ErrorCode::kNoSpace);
              }
            });
}

void Node::finish_reserve(const AddressRange& range, const RegionAttrs& attrs,
                          ReserveCb cb) {
  RegionDescriptor desc;
  desc.range = range;
  desc.attrs = attrs;
  desc.home_nodes = {config_.id};
  homed_regions_[range.base] = desc;
  meta_.record_region(desc);
  meta_.record_pool(granted_bytes_, pool_);  // reservation was carved from the pool
  regions_.insert(desc);
  ins_.reserves->inc();

  // Register the reservation with the address map and publish a location
  // hint to the cluster manager.
  mutate_map(kMapInsert, range, {config_.id});
  publish_hint(range, /*retract=*/false);

  cb(range.base);
}

void Node::unreserve(const GlobalAddress& base, StatusCb cb) {
  resolver_.resolve(base, [this, base, cb = std::move(cb)](
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
    if (desc.primary_home() == config_.id) {
      drop_homed_region(desc);
      cb(Status{});
      return;
    }
    // Remote home: release-type semantics — accept now, deliver reliably
    // in the background (Section 3.5).
    Encoder e;
    e.addr(base);
    engine_.send_reliable(desc.primary_home(), MsgType::kUnreserveReq,
                  std::move(e).take());
    regions_.invalidate(base);
    cb(Status{});
  });
}

// ---------------------------------------------------------------------------
// Storage allocation: allocate / deallocate
// ---------------------------------------------------------------------------

void Node::allocate(const AddressRange& range, StatusCb cb) {
  if (range.size == 0) {
    cb(ErrorCode::kBadArgument);
    return;
  }
  resolver_.resolve(range.base, [this, range, cb = std::move(cb)](
                          Result<RegionDescriptor> r) mutable {
    if (!r) {
      cb(r.error());
      return;
    }
    const RegionDescriptor desc = r.value();
    if (!desc.range.contains_range(range)) {
      cb(ErrorCode::kBadArgument);
      return;
    }
    if (!desc.attrs.acl.allows(config_.principal, /*write=*/true)) {
      cb(ErrorCode::kAccessDenied);
      return;
    }
    if (desc.primary_home() == config_.id) {
      materialize_region_pages(desc, range);
      if (auto it = homed_regions_.find(desc.range.base);
          it != homed_regions_.end()) {
        it->second.allocated = true;
        meta_.record_region(it->second);
      }
      cb(Status{});
      return;
    }
    Encoder e;
    e.range(range);
    engine_.call(desc.home_nodes, MsgType::kAllocReq, std::move(e).take(),
              [this, base = desc.range.base, cb = std::move(cb)](
                  bool ok, Decoder& d) mutable {
                if (!ok) {
                  cb(ErrorCode::kUnreachable);
                  return;
                }
                const ErrorCode err = from_wire(d.u8());
                if (err == ErrorCode::kOk) {
                  // Refresh the cached descriptor's allocated bit.
                  regions_.invalidate(base);
                }
                cb(err == ErrorCode::kOk ? Status{} : Status{err});
              });
  });
}

void Node::deallocate(const AddressRange& range, StatusCb cb) {
  if (range.size == 0) {
    cb(ErrorCode::kBadArgument);
    return;
  }
  resolver_.resolve(range.base, [this, range, cb = std::move(cb)](
                          Result<RegionDescriptor> r) mutable {
    if (!r) {
      cb(r.error());
      return;
    }
    const RegionDescriptor desc = r.value();
    if (!desc.range.contains_range(range)) {
      cb(ErrorCode::kBadArgument);
      return;
    }
    if (desc.primary_home() == config_.id) {
      release_region_pages(desc, range);
      cb(Status{});
      return;
    }
    Encoder e;
    e.range(range);
    engine_.send_reliable(desc.primary_home(), MsgType::kFreeReq,
                  std::move(e).take());
    cb(Status{});
  });
}

}  // namespace khz::core
