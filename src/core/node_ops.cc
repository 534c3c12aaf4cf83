// Client operations, location resolution, request handlers, replica
// maintenance, failure detection and metadata persistence for core::Node.
// (node.cc holds construction, messaging plumbing and the CmHost glue.)
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

/// Pages a lock op keeps in flight during its prefetch phase. 16 parallel
/// warm-up rounds cover the common range sizes while bounding the burst a
/// single op can put on the wire.
constexpr std::size_t kLockPrefetchWindow = 16;

/// In-flight multi-page lock acquisition, in two phases:
///
///  1. Prefetch: up to kLockPrefetchWindow concurrent CM prefetches bring
///     every page of the range into a grantable state (data for reads,
///     ownership for writes) WITHOUT taking holds — N remote rounds
///     overlap into ~1 RTT, and since nothing is held yet, concurrent
///     overlapping lockers cannot deadlock while they wait here.
///  2. Acquire: holds are then taken page by page in strict ascending
///     address order (pages[] is built sorted). Ordered hold-taking is the
///     classical deadlock-avoidance rule: every node only ever waits for a
///     page higher than all pages it holds, so no wait cycle can form.
///     After a successful prefetch each acquire is a local grant; a page
///     stolen between the phases just costs one ordinary remote round.
///
/// A phase-2 failure releases everything granted so far and reflects the
/// error to the client (all-or-nothing).
struct LockOp {
  AddressRange range;
  LockMode mode;
  RegionDescriptor desc;
  std::vector<GlobalAddress> pages;  // ascending address order
  std::size_t prefetch_issued = 0;
  std::size_t prefetch_done = 0;
  std::size_t inflight = 0;  // prefetches currently outstanding
  std::size_t next = 0;      // phase-2 cursor
  /// Bumped when the op restarts (relocate-and-retry); completions from
  /// the abandoned attempt compare against it and drop out.
  std::uint64_t epoch = 0;
  bool relocated = false;  // one re-resolve after a stale-home bounce
  Node::LockCb cb;
};

// ---------------------------------------------------------------------------
// Address-space management: reserve / unreserve
// ---------------------------------------------------------------------------

std::optional<GlobalAddress> Node::carve_from_pool(std::uint64_t size) {
  // `size` is already page-aligned; carve an aligned base so large-page
  // regions start on a page boundary. Alignment slack stays in the pool.
  std::lock_guard<std::recursive_mutex> g(state_mu_);
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
  std::lock_guard<std::recursive_mutex> g(state_mu_);
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
              std::optional<GlobalAddress> carved;
              {
                std::lock_guard<std::recursive_mutex> g(state_mu_);
                pool_.push_back({base, granted});
                meta_.record_pool(granted_bytes_, pool_);
                carved = carve_from_pool(aligned);
              }
              if (carved) {
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
  {
    std::lock_guard<std::recursive_mutex> g(state_mu_);
    homed_regions_[range.base] = desc;
    meta_.record_region(desc);
    meta_.record_pool(granted_bytes_, pool_);  // reservation was carved from the pool
  }
  regions_.insert(desc);
  ins_.reserves->inc();

  // Register the reservation with the address map (background-reliable;
  // the map is a hint structure and tolerates lag) and publish a location
  // hint to the cluster manager.
  Encoder map_req;
  map_req.u8(1);  // insert
  map_req.range(range);
  map_req.u32(1);
  map_req.u32(config_.id);
  engine_.send_reliable(config_.genesis, MsgType::kMapMutateReq,
                std::move(map_req).take());

  publish_hint(range, /*retract=*/false);

  cb(range.base);
}

void Node::unreserve(const GlobalAddress& base, StatusCb cb) {
  fabric_->resolve(base, [this, base, cb = std::move(cb)](
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
      release_region_pages(desc, desc.range);
      {
        std::lock_guard<std::recursive_mutex> g(state_mu_);
        homed_regions_.erase(base);
        pool_.push_back(desc.range);  // reclaim into the local pool
        meta_.record_region_erase(base);
        meta_.record_pool(granted_bytes_, pool_);
      }
      regions_.invalidate(base);
      Encoder map_req;
      map_req.u8(2);  // erase
      map_req.range(desc.range);
      map_req.u32(0);
      engine_.send_reliable(config_.genesis, MsgType::kMapMutateReq,
                            std::move(map_req).take());
      publish_hint(desc.range, /*retract=*/true);
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
  fabric_->resolve(range.base, [this, range, cb = std::move(cb)](
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
      {
        std::lock_guard<std::recursive_mutex> g(state_mu_);
        auto it = homed_regions_.find(desc.range.base);
        if (it != homed_regions_.end()) {
          it->second.allocated = true;
          meta_.record_region(it->second);
        }
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
  fabric_->resolve(range.base, [this, range, cb = std::move(cb)](
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

// ---------------------------------------------------------------------------
// Locking and data access
// ---------------------------------------------------------------------------

void Node::lock(const AddressRange& range, LockMode mode, LockCb cb) {
  // Root span for the whole acquisition: resolve, home rpc, CREW round and
  // grant all join this trace (across nodes, via the message envelope).
  const Micros t0 = now();
  const obs::TraceContext span = tracer_.begin_span("op:lock");
  obs::ScopedTraceContext scope(tracer_, span);
  const OpWatch watch = watch_op();
  cb = [this, t0, watch, h = lock_hist(mode), span,
        cb = std::move(cb)](Result<LockContext> r) {
    if (r.ok()) h->record(now() - t0);
    tracer_.end_span(span);
    maybe_record_slow_op("lock", watch, span.trace_id);
    cb(std::move(r));
  };
  if (range.size == 0 || mode == LockMode::kNone) {
    cb(ErrorCode::kBadArgument);
    return;
  }
  fabric_->resolve(range.base, [this, range, mode, cb = std::move(cb)](
                          Result<RegionDescriptor> r) mutable {
    if (!r) {
      ins_.locks_failed->inc();
      cb(r.error());
      return;
    }
    RegionDescriptor desc = r.value();
    if (!desc.range.contains_range(range)) {
      cb(ErrorCode::kBadArgument);
      return;
    }
    if (!desc.attrs.acl.allows(config_.principal, is_write(mode))) {
      cb(ErrorCode::kAccessDenied);
      return;
    }
    if (desc.allocated) {
      start_lock_op(desc, range, mode, std::move(cb));
      return;
    }
    // The cached descriptor may predate allocation; fetch a fresh copy
    // from the home before failing (region directory staleness is
    // expected, Section 3.2).
    regions_.invalidate(desc.range.base);
    Encoder e;
    e.addr(range.base);
    engine_.call(desc.home_nodes, MsgType::kDescLookupReq, std::move(e).take(),
              [this, range, mode, cb = std::move(cb)](bool ok,
                                                      Decoder& d) mutable {
                if (!ok) {
                  ins_.locks_failed->inc();
                  cb(ErrorCode::kUnreachable);
                  return;
                }
                const ErrorCode err = from_wire(d.u8());
                if (err != ErrorCode::kOk) {
                  ins_.locks_failed->inc();
                  cb(err);
                  return;
                }
                RegionDescriptor fresh = RegionDescriptor::decode(d);
                regions_.insert(fresh);
                if (!fresh.allocated) {
                  ins_.locks_failed->inc();
                  cb(ErrorCode::kNotAllocated);
                  return;
                }
                start_lock_op(fresh, range, mode, std::move(cb));
              });
  });
}

void Node::start_lock_op(const RegionDescriptor& desc,
                         const AddressRange& range, LockMode mode,
                         LockCb cb) {
  auto op = std::make_shared<LockOp>();
  op->range = range;
  op->mode = mode;
  op->desc = desc;
  op->cb = std::move(cb);
  const std::uint32_t psz = desc.attrs.page_size;
  const std::uint64_t offset = desc.range.base.distance_to(range.base);
  const GlobalAddress first = desc.range.base.plus(offset - offset % psz);
  for (GlobalAddress p = first; p < range.end(); p = p.plus(psz)) {
    op->pages.push_back(p);
  }
  // The loop above yields ascending addresses already; keep the sort as a
  // belt-and-braces guard — phase 2's deadlock freedom depends on it.
  std::sort(op->pages.begin(), op->pages.end());
  ins_.lock_pages->record(op->pages.size());
  lock_prefetch_pump(op);
}

void Node::lock_prefetch_pump(const std::shared_ptr<LockOp>& op) {
  auto* cm = cm_for(op->desc.attrs.protocol);
  if (cm == nullptr) {
    op->cb(ErrorCode::kBadArgument);
    return;
  }
  if (op->pages.empty()) {
    lock_next_page(op);
    return;
  }
  regions_.insert(op->desc);
  // Prefetches may complete synchronously, re-entering this pump from the
  // callback below (and phase 2, even a relocate-restart, can run while
  // this loop frame is still live). The epoch check stops a superseded
  // frame from issuing into the restarted op.
  const std::uint64_t epoch = op->epoch;
  while (op->epoch == epoch && op->prefetch_issued < op->pages.size() &&
         op->inflight < kLockPrefetchWindow) {
    const GlobalAddress page = op->pages[op->prefetch_issued++];
    ++op->inflight;
    ins_.lock_window->record(op->inflight);
    // The prefetch outcome is advisory: a page that could not be warmed
    // (unreachable home, stale descriptor) is retried authoritatively by
    // the phase-2 acquire, which owns the error handling.
    cm->prefetch(page, op->mode, [this, op, epoch](Status) {
      if (op->epoch != epoch) return;  // superseded by a relocate-restart
      --op->inflight;
      ++op->prefetch_done;
      if (op->prefetch_done == op->pages.size()) {
        lock_next_page(op);
      } else {
        lock_prefetch_pump(op);
      }
    });
  }
}

void Node::lock_next_page(std::shared_ptr<LockOp> op) {
  if (op->next == op->pages.size()) {
    const std::uint64_t id = next_lock_id_++;
    ActiveLock al;
    al.ctx = LockContext{id, op->range, op->mode};
    al.protocol = op->desc.attrs.protocol;
    al.pages = op->pages;
    al.page_size = op->desc.attrs.page_size;
    for (const auto& p : al.pages) storage_.pin(p);
    active_locks_.emplace(id, std::move(al));
    ins_.locks_granted->inc();
    op->cb(LockContext{id, op->range, op->mode});
    return;
  }
  auto* cm = cm_for(op->desc.attrs.protocol);
  if (cm == nullptr) {
    op->cb(ErrorCode::kBadArgument);
    return;
  }
  const GlobalAddress page = op->pages[op->next];
  // Make sure the page's home is resolvable by the protocol even if the
  // descriptor got evicted from the directory mid-operation.
  regions_.insert(op->desc);
  // Roll back with the same manager that granted: re-looking the protocol
  // up inside the failure path could (in principle) come back null and
  // would then leak every hold taken so far.
  cm->acquire(page, op->mode, [this, op, cm](Status s) mutable {
    if (s.ok()) {
      ++op->next;
      lock_next_page(std::move(op));
      return;
    }
    for (std::size_t i = 0; i < op->next; ++i) {
      cm->release(op->pages[i], op->mode, /*dirty=*/false);
    }
    op->next = 0;
    if (s.error() == ErrorCode::kNotFound && !op->relocated) {
      // A presumed home bounced the request (stale directory entry,
      // Section 3.2). Drop the cached descriptor, re-resolve through the
      // manager / map / cluster walk, and retry once — from the prefetch
      // phase, since the new home needs warming too.
      op->relocated = true;
      ++op->epoch;  // orphan any prefetch completions still in flight
      op->prefetch_issued = 0;
      op->prefetch_done = 0;
      op->inflight = 0;
      regions_.invalidate(op->range.base);
      fabric_->resolve(op->range.base, [this, op](Result<RegionDescriptor> r) mutable {
        if (!r) {
          ins_.locks_failed->inc();
          op->cb(r.error());
          return;
        }
        op->desc = r.value();
        lock_prefetch_pump(op);
      });
      return;
    }
    ins_.locks_failed->inc();
    op->cb(s.error());
  });
}

void Node::unlock(const LockContext& ctx) {
  auto it = active_locks_.find(ctx.id);
  if (it == active_locks_.end()) return;
  ActiveLock al = std::move(it->second);
  active_locks_.erase(it);
  auto* cm = cm_for(al.protocol);
  for (const auto& p : al.pages) {
    storage_.unpin(p);
    if (pages_.ensure(p).homed_locally && al.dirty.contains(p)) {
      (void)storage_.flush(p);
      journal_page(p);
    }
    if (cm != nullptr) cm->release(p, al.ctx.mode, al.dirty.contains(p));
  }
}

Result<Bytes> Node::read(const LockContext& ctx, std::uint64_t offset,
                         std::uint64_t len) {
  auto it = active_locks_.find(ctx.id);
  if (it == active_locks_.end()) return ErrorCode::kBadLock;
  const ActiveLock& al = it->second;
  if (offset + len > al.ctx.range.size) return ErrorCode::kBadArgument;
  ins_.reads->inc();
  const Micros t0 = now();
  const obs::TraceContext span =
      tracer_.begin_span("op:read", tracer_.current());

  Bytes out(len);
  const std::uint32_t psz = al.page_size;
  std::uint64_t done = 0;
  while (done < len) {
    const GlobalAddress at = al.ctx.range.base.plus(offset + done);
    const GlobalAddress page = at.page_floor(psz);
    const std::uint64_t in_page = page.distance_to(at);
    const std::uint64_t chunk = std::min<std::uint64_t>(len - done,
                                                        psz - in_page);
    const Bytes* data = storage_.get(page);
    if (data == nullptr || data->size() < in_page + chunk) {
      tracer_.end_span(span);
      return ErrorCode::kInternal;  // locked pages must be resident
    }
    std::copy_n(data->begin() + static_cast<long>(in_page), chunk,
                out.begin() + static_cast<long>(done));
    done += chunk;
  }
  tracer_.end_span(span);
  ins_.read_us->record(now() - t0);
  return out;
}

Status Node::write(const LockContext& ctx, std::uint64_t offset,
                   std::span<const std::uint8_t> data) {
  auto it = active_locks_.find(ctx.id);
  if (it == active_locks_.end()) return ErrorCode::kBadLock;
  ActiveLock& al = it->second;
  if (!is_write(al.ctx.mode)) return ErrorCode::kBadLock;
  if (offset + data.size() > al.ctx.range.size) return ErrorCode::kBadArgument;
  ins_.writes->inc();
  const Micros t0 = now();
  const obs::TraceContext span =
      tracer_.begin_span("op:write", tracer_.current());

  const std::uint32_t psz = al.page_size;
  std::uint64_t done = 0;
  while (done < data.size()) {
    const GlobalAddress at = al.ctx.range.base.plus(offset + done);
    const GlobalAddress page = at.page_floor(psz);
    const std::uint64_t in_page = page.distance_to(at);
    const std::uint64_t chunk =
        std::min<std::uint64_t>(data.size() - done, psz - in_page);
    Bytes* stored = storage_.get_mutable(page);
    if (stored == nullptr || stored->size() < in_page + chunk) {
      tracer_.end_span(span);
      return ErrorCode::kInternal;
    }
    std::copy_n(data.begin() + static_cast<long>(done), chunk,
                stored->begin() + static_cast<long>(in_page));
    al.dirty.insert(page);
    done += chunk;
  }
  tracer_.end_span(span);
  ins_.write_us->record(now() - t0);
  return {};
}

// The grant callbacks below are called from inside the protocol's grant
// loop (CREW's try_grant_local), so the access and the release run as a
// freshly posted job rather than re-entering the CM from there.

void Node::get(const AddressRange& range, BytesCb cb) {
  lock(range, LockMode::kRead,
       [this, cb = std::move(cb)](Result<LockContext> r) mutable {
         if (!r) {
           cb(r.error());
           return;
         }
         const LockContext ctx = r.value();
         transport_.post([this, ctx, cb = std::move(cb)] {
           Result<Bytes> out = read(ctx, 0, ctx.range.size);
           unlock(ctx);
           cb(std::move(out));
         });
       });
}

void Node::put(const AddressRange& range, Bytes data, StatusCb cb) {
  lock(range, LockMode::kWrite,
       [this, data = std::move(data),
        cb = std::move(cb)](Result<LockContext> r) mutable {
         if (!r) {
           cb(r.error());
           return;
         }
         const LockContext ctx = r.value();
         transport_.post([this, ctx, data = std::move(data),
                          cb = std::move(cb)] {
           const Status s = write(ctx, 0, data);
           unlock(ctx);
           cb(s);
         });
       });
}

}  // namespace khz::core
