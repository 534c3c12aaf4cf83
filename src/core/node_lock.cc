// Locking and data access for core::Node: the lock pipeline (LockOp), the
// synchronous read/write under a held lock, and the one-visit composites
// get/put and get_many/put_many. (node_ops.cc holds the address-space and
// allocation operations.)
#include <algorithm>

#include "core/node.h"

namespace khz::core {

using consistency::LockContext;
using consistency::LockMode;
using consistency::is_write;
using net::MsgType;

namespace {
ErrorCode from_wire(std::uint8_t b) { return static_cast<ErrorCode>(b); }

/// True when [offset, offset + len) lies inside `size` bytes. Written so
/// that no sum can wrap: `offset + len > size` passes for a huge `len`.
bool within(std::uint64_t size, std::uint64_t offset, std::uint64_t len) {
  return offset <= size && len <= size - offset;
}
}  // namespace

/// Pages a lock op keeps in flight during its prefetch phase. 16 parallel
/// warm-up rounds cover the common range sizes while bounding the burst a
/// single op can put on the wire.
constexpr std::size_t kLockPrefetchWindow = 16;

/// In-flight lock acquisition over one or more ranges (segments), each in
/// its own region or sharing one, in two phases:
///
///  1. Prefetch: up to kLockPrefetchWindow concurrent CM prefetches bring
///     every page of every segment into a grantable state (data for reads,
///     ownership for writes) WITHOUT taking holds — N remote rounds
///     overlap into ~1 RTT (CREW coalesces the fetches bound for one home
///     into one batch), and since nothing is held yet, concurrent
///     overlapping lockers cannot deadlock while they wait here.
///  2. Acquire: holds are then taken page by page in strict ascending
///     global address order across all segments (pages[] is sorted).
///     Ordered hold-taking is the classical deadlock-avoidance rule: every
///     node only ever waits for a page higher than all pages it holds, so
///     no wait cycle can form. After a successful prefetch each acquire is
///     a local grant; a page stolen between the phases just costs one
///     ordinary remote round.
///
/// A phase-2 failure releases everything granted so far and reflects the
/// error to the client (all-or-nothing), except that a stale-home bounce
/// re-resolves the bounced segment's region once and restarts phase 1.
struct Node::LockOp {
  /// One locked range and the region it lies in.
  struct Segment {
    AddressRange range;
    RegionDescriptor desc;
    /// The manager that grants (and must roll back) this segment's holds.
    consistency::ConsistencyManager* cm = nullptr;
    bool relocated = false;  // one re-resolve after a stale-home bounce
  };
  struct Page {
    GlobalAddress addr;
    std::uint32_t seg = 0;  // index into segs
  };

  LockMode mode = LockMode::kNone;
  std::vector<Segment> segs;  // the caller's order
  std::vector<Page> pages;    // every segment's pages, ascending address
  std::size_t unresolved = 0;  // segments still resolving
  ErrorCode error = ErrorCode::kOk;  // first resolve failure
  std::size_t prefetch_issued = 0;
  std::size_t prefetch_done = 0;
  std::size_t inflight = 0;  // prefetches currently outstanding
  std::size_t next = 0;      // phase-2 cursor
  /// Bumped when the op restarts (relocate-and-retry); completions from
  /// the abandoned attempt compare against it and drop out.
  std::uint64_t epoch = 0;
  LocksCb cb;
};

// ---------------------------------------------------------------------------
// Locking
// ---------------------------------------------------------------------------

void Node::lock(const AddressRange& range, LockMode mode, LockCb cb) {
  lock_ranges({range}, mode,
              [cb = std::move(cb)](Result<std::vector<LockContext>> r) {
                if (!r) {
                  cb(r.error());
                  return;
                }
                cb(r.value().front());
              });
}

void Node::lock_ranges(std::vector<AddressRange> ranges, LockMode mode,
                       LocksCb cb) {
  // Root span for the whole acquisition: resolve, home rpc, CREW round and
  // grant all join this trace (across nodes, via the message envelope).
  const Micros t0 = now();
  const obs::TraceContext span = tracer_.begin_span("op:lock");
  obs::ScopedTraceContext scope(tracer_, span);
  const OpWatch watch = watch_op();
  cb = [this, t0, watch, h = lock_hist(mode), span,
        cb = std::move(cb)](Result<std::vector<LockContext>> r) {
    if (r.ok()) {
      h->record(now() - t0);
    } else if (r.error() != ErrorCode::kBadArgument &&
               r.error() != ErrorCode::kAccessDenied) {
      ins_.locks_failed->inc();  // a refused request is not a failed lock
    }
    tracer_.end_span(span);
    maybe_record_slow_op("lock", watch, span.trace_id);
    cb(std::move(r));
  };
  if (ranges.empty() || mode == LockMode::kNone ||
      std::any_of(ranges.begin(), ranges.end(),
                  [](const AddressRange& r) { return r.size == 0; })) {
    cb(ErrorCode::kBadArgument);
    return;
  }
  ins_.lock_ranges->record(ranges.size());
  auto op = std::make_shared<LockOp>();
  op->mode = mode;
  op->cb = std::move(cb);
  op->segs.resize(ranges.size());
  op->unresolved = ranges.size();
  for (std::size_t i = 0; i < ranges.size(); ++i) {
    op->segs[i].range = ranges[i];
    resolve_for_lock(ranges[i], mode,
                     [this, op, i](Result<RegionDescriptor> r) {
                       if (r) {
                         op->segs[i].desc = std::move(r).value();
                       } else if (op->error == ErrorCode::kOk) {
                         op->error = r.error();
                       }
                       if (--op->unresolved == 0) start_lock_op(op);
                     });
  }
}

void Node::resolve_for_lock(const AddressRange& range, LockMode mode,
                            location::Resolver::DescCb cb) {
  resolver_.resolve(range.base, [this, range, mode, cb = std::move(cb)](
                                   Result<RegionDescriptor> r) mutable {
    if (!r) {
      cb(r.error());
      return;
    }
    RegionDescriptor desc = std::move(r).value();
    if (!desc.range.contains_range(range)) {
      cb(ErrorCode::kBadArgument);
      return;
    }
    if (!desc.attrs.acl.allows(config_.principal, is_write(mode))) {
      cb(ErrorCode::kAccessDenied);
      return;
    }
    if (desc.allocated) {
      cb(std::move(desc));
      return;
    }
    // The cached descriptor may predate allocation; fetch a fresh copy
    // from the home before failing (region directory staleness is
    // expected, Section 3.2).
    regions_.invalidate(desc.range.base);
    Encoder e;
    e.addr(range.base);
    engine_.call(desc.home_nodes, MsgType::kDescLookupReq, std::move(e).take(),
                 [this, cb = std::move(cb)](bool ok, Decoder& d) mutable {
                   if (!ok) {
                     cb(ErrorCode::kUnreachable);
                     return;
                   }
                   const ErrorCode err = from_wire(d.u8());
                   if (err != ErrorCode::kOk) {
                     cb(err);
                     return;
                   }
                   RegionDescriptor fresh = RegionDescriptor::decode(d);
                   regions_.insert(fresh);
                   if (!fresh.allocated) {
                     cb(ErrorCode::kNotAllocated);
                     return;
                   }
                   cb(std::move(fresh));
                 });
  });
}

void Node::start_lock_op(const std::shared_ptr<LockOp>& op) {
  if (op->error != ErrorCode::kOk) {
    op->cb(op->error);
    return;
  }
  for (std::uint32_t s = 0; s < op->segs.size(); ++s) {
    LockOp::Segment& seg = op->segs[s];
    seg.cm = cm_for(seg.desc.attrs.protocol);
    if (seg.cm == nullptr) {
      op->cb(ErrorCode::kBadArgument);
      return;
    }
    const std::uint32_t psz = seg.desc.attrs.page_size;
    for (GlobalAddress p = seg.desc.page_of(seg.range.base);
         p < seg.range.end(); p = p.plus(psz)) {
      op->pages.push_back({p, s});
    }
  }
  // Phase 2's deadlock freedom depends on this order.
  std::sort(op->pages.begin(), op->pages.end(),
            [](const LockOp::Page& a, const LockOp::Page& b) {
              return a.addr < b.addr;
            });
  // Two ranges on one page would make the op wait on its own hold.
  if (std::adjacent_find(op->pages.begin(), op->pages.end(),
                         [](const LockOp::Page& a, const LockOp::Page& b) {
                           return a.addr == b.addr;
                         }) != op->pages.end()) {
    op->cb(ErrorCode::kBadArgument);
    return;
  }
  ins_.lock_pages->record(op->pages.size());
  lock_prefetch_pump(op);
}

void Node::lock_prefetch_pump(const std::shared_ptr<LockOp>& op) {
  // Prefetches may complete synchronously, re-entering this pump from the
  // callback below (and phase 2, even a relocate-restart, can run while
  // this loop frame is still live). The epoch check stops a superseded
  // frame from issuing into the restarted op.
  const std::uint64_t epoch = op->epoch;
  while (op->epoch == epoch && op->prefetch_issued < op->pages.size() &&
         op->inflight < kLockPrefetchWindow) {
    const LockOp::Page page = op->pages[op->prefetch_issued++];
    const LockOp::Segment& seg = op->segs[page.seg];
    // The protocol resolves the page's home through the directory.
    regions_.insert(seg.desc);
    ++op->inflight;
    ins_.lock_window->record(op->inflight);
    // The prefetch outcome is advisory: a page that could not be warmed
    // (unreachable home, stale descriptor) is retried authoritatively by
    // the phase-2 acquire, which owns the error handling.
    seg.cm->prefetch(page.addr, op->mode, [this, op, epoch](Status) {
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
    grant_lock_op(*op);
    return;
  }
  const LockOp::Page page = op->pages[op->next];
  const LockOp::Segment& seg = op->segs[page.seg];
  // Make sure the page's home is resolvable by the protocol even if the
  // descriptor got evicted from the directory mid-operation.
  regions_.insert(seg.desc);
  seg.cm->acquire(page.addr, op->mode, [this, op, page](Status s) mutable {
    if (s.ok()) {
      ++op->next;
      lock_next_page(std::move(op));
      return;
    }
    // Roll back with the managers that granted.
    for (std::size_t i = 0; i < op->next; ++i) {
      const LockOp::Page& held = op->pages[i];
      op->segs[held.seg].cm->release(held.addr, op->mode, /*dirty=*/false);
    }
    op->next = 0;
    LockOp::Segment& bounced = op->segs[page.seg];
    if (s.error() != ErrorCode::kNotFound || bounced.relocated) {
      op->cb(s.error());
      return;
    }
    // A presumed home bounced the request (stale directory entry,
    // Section 3.2). Drop the cached descriptor, re-resolve through the
    // manager / map / cluster walk, and retry once — from the prefetch
    // phase, since the new home needs warming too.
    bounced.relocated = true;
    ++op->epoch;  // orphan any prefetch completions still in flight
    op->prefetch_issued = 0;
    op->prefetch_done = 0;
    op->inflight = 0;
    regions_.invalidate(bounced.range.base);
    resolver_.resolve(bounced.range.base, [this, op, seg = page.seg](
                                             Result<RegionDescriptor> r) {
      if (!r) {
        op->cb(r.error());
        return;
      }
      LockOp::Segment& moved = op->segs[seg];
      moved.desc = std::move(r).value();
      moved.cm = cm_for(moved.desc.attrs.protocol);
      if (moved.cm == nullptr) {
        op->cb(ErrorCode::kBadArgument);
        return;
      }
      lock_prefetch_pump(op);
    });
  });
}

void Node::grant_lock_op(LockOp& op) {
  std::vector<ActiveLock> locks(op.segs.size());
  for (const LockOp::Page& page : op.pages) {
    locks[page.seg].pages.push_back(page.addr);  // ascending per segment
    storage_.pin(page.addr);
  }
  std::vector<LockContext> ctxs;
  ctxs.reserve(op.segs.size());
  for (std::size_t s = 0; s < op.segs.size(); ++s) {
    const LockOp::Segment& seg = op.segs[s];
    ActiveLock& al = locks[s];
    al.ctx = LockContext{next_lock_id_++, seg.range, op.mode};
    al.protocol = seg.desc.attrs.protocol;
    al.page_size = seg.desc.attrs.page_size;
    ctxs.push_back(al.ctx);
    active_locks_.emplace(al.ctx.id, std::move(al));
  }
  ins_.locks_granted->inc(ctxs.size());  // one lock context per range
  op.cb(std::move(ctxs));
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

// ---------------------------------------------------------------------------
// Data access under a held lock
// ---------------------------------------------------------------------------

Result<Bytes> Node::read(const LockContext& ctx, std::uint64_t offset,
                         std::uint64_t len) {
  auto it = active_locks_.find(ctx.id);
  if (it == active_locks_.end()) return ErrorCode::kBadLock;
  const ActiveLock& al = it->second;
  if (!within(al.ctx.range.size, offset, len)) return ErrorCode::kBadArgument;
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
  if (!within(al.ctx.range.size, offset, data.size())) {
    return ErrorCode::kBadArgument;
  }
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

// ---------------------------------------------------------------------------
// One-visit composites
// ---------------------------------------------------------------------------
//
// The grant callbacks below are called from inside the protocol's grant
// loop (CREW's try_grant_local), so the accesses and the releases run as a
// freshly posted job rather than re-entering the CM from there.

void Node::get_many(std::vector<AddressRange> ranges, BytesListCb cb) {
  lock_ranges(
      std::move(ranges), LockMode::kRead,
      [this, cb = std::move(cb)](Result<std::vector<LockContext>> r) mutable {
        if (!r) {
          cb(r.error());
          return;
        }
        transport_.post([this, ctxs = std::move(r).value(),
                         cb = std::move(cb)] {
          std::vector<Bytes> out;
          out.reserve(ctxs.size());
          ErrorCode err = ErrorCode::kOk;
          for (const LockContext& ctx : ctxs) {
            Result<Bytes> data = read(ctx, 0, ctx.range.size);
            if (!data) {
              err = data.error();
              break;
            }
            out.push_back(std::move(data).value());
          }
          for (const LockContext& ctx : ctxs) unlock(ctx);
          if (err != ErrorCode::kOk) {
            cb(err);
          } else {
            cb(std::move(out));
          }
        });
      });
}

void Node::put_many(std::vector<RangeWrite> writes, StatusCb cb) {
  std::vector<AddressRange> ranges;
  ranges.reserve(writes.size());
  for (const RangeWrite& w : writes) {
    if (!within(w.range.size, 0, w.data.size())) {
      cb(ErrorCode::kBadArgument);
      return;
    }
    ranges.push_back(w.range);
  }
  lock_ranges(
      std::move(ranges), LockMode::kWrite,
      [this, writes = std::move(writes),
       cb = std::move(cb)](Result<std::vector<LockContext>> r) mutable {
        if (!r) {
          cb(r.error());
          return;
        }
        transport_.post([this, ctxs = std::move(r).value(),
                         writes = std::move(writes), cb = std::move(cb)] {
          Status s;
          for (std::size_t i = 0; i < ctxs.size() && s.ok(); ++i) {
            s = write(ctxs[i], 0, writes[i].data);
          }
          for (const LockContext& ctx : ctxs) unlock(ctx);
          cb(s);
        });
      });
}

void Node::get(const AddressRange& range, BytesCb cb) {
  get_many({range}, [cb = std::move(cb)](Result<std::vector<Bytes>> r) {
    if (!r) {
      cb(r.error());
      return;
    }
    cb(std::move(r.value().front()));
  });
}

void Node::put(const AddressRange& range, Bytes data, StatusCb cb) {
  std::vector<RangeWrite> writes;
  writes.push_back({range, std::move(data)});
  put_many(std::move(writes), std::move(cb));
}

}  // namespace khz::core
