#include "consistency/crew.h"

#include <algorithm>

#include "common/log.h"

namespace khz::consistency {

namespace {
using PS = storage::PageState;

bool readable(const storage::PageInfo& info) {
  return info.state != PS::kInvalid && info.write_holds == 0;
}

bool writable_locally(const storage::PageInfo& info, NodeId self) {
  return info.state == PS::kExclusive && info.owner == self &&
         info.read_holds == 0 && info.write_holds == 0;
}

/// At the home, the home's own lock holds exclude remote requests as a
/// sharer's holds do (a sharer defers the home's invalidate, downgrade or
/// transfer): a remote write waits out every local hold, a remote read
/// any local write hold.
bool held_at_home(const storage::PageInfo& info, NodeId from, NodeId self,
                  LockMode mode) {
  if (from == self) return false;
  return info.write_holds > 0 ||
         (mode != LockMode::kRead && info.read_holds > 0);
}
}  // namespace

void CrewManager::send(NodeId to, const GlobalAddress& page, Sub sub,
                       const std::function<void(Encoder&)>& body) {
  Encoder e;
  e.u8(static_cast<std::uint8_t>(sub));
  if (body) body(e);
  host_.send_cm(to, ProtocolId::kCrew, page, std::move(e).take());
}

void CrewManager::install_data(const GlobalAddress& page, Version version,
                               Bytes data, storage::PageState new_state) {
  auto& info = host_.page_info(page);
  if (!data.empty()) {
    host_.store_page(page, std::move(data));
  }
  info.version = std::max(info.version, version);
  info.state = new_state;
}

// --------------------------------------------------------------------------
// Requester side
// --------------------------------------------------------------------------

void CrewManager::acquire(const GlobalAddress& page, LockMode mode,
                          GrantCallback done) {
  // CREW has no concurrent-writer mode; write-shared degrades to write.
  if (mode == LockMode::kWriteShared) mode = LockMode::kWrite;
  auto& st = state(page);
  st.waiters.push_back({mode, std::move(done), /*prefetch=*/false});
  try_grant_local(page);
}

void CrewManager::prefetch(const GlobalAddress& page, LockMode mode,
                           GrantCallback done) {
  if (mode == LockMode::kWriteShared) mode = LockMode::kWrite;
  auto& st = state(page);
  st.waiters.push_back({mode, std::move(done), /*prefetch=*/true});
  try_grant_local(page);
}

void CrewManager::try_grant_local(const GlobalAddress& page) {
  auto& st = state(page);
  auto& info = host_.page_info(page);
  const NodeId self = host_.self();

  while (!st.waiters.empty()) {
    Waiter& w = st.waiters.front();
    bool can_grant;
    if (w.prefetch) {
      // Prefetches only need the page in a grantable *state* (data present
      // for reads, ownership for writes); local holds are irrelevant
      // because a prefetch takes none itself.
      can_grant = (w.mode == LockMode::kRead)
                      ? info.state != PS::kInvalid
                      : info.state == PS::kExclusive && info.owner == self;
    } else {
      can_grant = (w.mode == LockMode::kRead) ? readable(info)
                                              : writable_locally(info, self);
    }
    // No new local hold while the home hands the page to a remote writer:
    // the grant would not survive the transfer.
    if (!w.prefetch && st.busy && st.in_flight_mode != LockMode::kRead &&
        st.in_flight_requester != self) {
      can_grant = false;
    }
    if (!can_grant) break;
    if (!w.prefetch) {
      if (w.mode == LockMode::kRead) {
        ++info.read_holds;
      } else {
        ++info.write_holds;
      }
    }
    GrantCallback done = std::move(w.done);
    st.waiters.pop_front();
    done(Status{});
  }

  if (st.waiters.empty() || st.request_outstanding) return;

  // Decide whether the head waiter is blocked remotely (we lack the copy /
  // ownership) or only locally (a conflicting local hold will release).
  const Waiter& head = st.waiters.front();
  const bool needs_remote =
      (head.mode == LockMode::kRead)
          ? info.state == PS::kInvalid
          : !(info.state == PS::kExclusive && info.owner == self);
  // First-attempt prefetch fetches coalesce into one batched request per
  // home; everything else (acquires, retries) goes out per-page.
  if (needs_remote) send_request(page, head.mode, head.prefetch);
}

void CrewManager::finish_round(PageState& st) {
  if (st.request_timer != 0) {
    host_.cancel(st.request_timer);
    st.request_timer = 0;
  }
  if (st.request_outstanding) {
    round_us_->record(
        static_cast<std::uint64_t>(host_.now() - st.request_sent_at));
  }
  st.request_outstanding = false;
  st.invalidated_in_flight = false;
  // The counter is per-round: a response (grant or Nack) ends the round.
  // Leaving it non-zero would steer every later round for this page to the
  // alternate homes even after the primary answered again.
  st.retries = 0;
}

void CrewManager::send_request(const GlobalAddress& page, LockMode mode,
                               bool batchable) {
  auto& st = state(page);
  st.request_outstanding = true;
  st.requested_mode = mode;
  st.request_sent_at = host_.now();

  // Retry the primary home first; on later retries, walk the alternates
  // (paper, Section 3.5: operations are retried on all known nodes). Never
  // pick self: a descriptor can list this node as an alternate (it may
  // hold a replica), but a request to self would just bounce off our own
  // not-home handler.
  NodeId target = host_.home_of(page);
  if (st.retries > 0) {
    auto alts = host_.alternate_homes(page);
    alts.erase(std::remove(alts.begin(), alts.end(), host_.self()),
               alts.end());
    if (!alts.empty()) {
      target = alts[static_cast<std::size_t>(st.retries - 1) % alts.size()];
    }
  }
  // Down-node short-circuit: if the failure detector already declared the
  // chosen target dead, steer to the first live candidate instead of
  // burning a whole round timeout on the corpse. If everybody is down we
  // keep the original target — the timeout path reflects the failure.
  if (host_.is_down(target)) {
    std::vector<NodeId> cands{host_.home_of(page)};
    for (NodeId a : host_.alternate_homes(page)) {
      if (a != host_.self()) cands.push_back(a);
    }
    for (NodeId c : cands) {
      if (!host_.is_down(c)) {
        target = c;
        break;
      }
    }
  }
  // The home may itself be waiting out a dead sharer/owner (its internal
  // timeout is one rpc_timeout); give it room before retrying. The timer
  // is armed before the (possibly deferred-by-a-turn) send, so it also
  // covers the batch path end to end.
  st.request_timer = host_.schedule(
      2 * host_.rpc_timeout(), [this, page] { on_request_timeout(page); });

  if (batchable && st.retries == 0) {
    // Coalesce with every other first-attempt fetch aimed at this target
    // during the current execution turn (a multi-page lock issues its
    // whole prefetch window in one turn); the zero-delay timer flushes
    // them as one kPageBatchFetchReq. Retries never batch, so a lost
    // batch degrades to the plain per-page path.
    fetch_batch_[target].push_back({page, mode});
    if (!fetch_flush_scheduled_) {
      fetch_flush_scheduled_ = true;
      host_.schedule(0, [this] { flush_fetch_batches(); });
    }
    return;
  }
  send(target, page,
       mode == LockMode::kRead ? Sub::kReadReq : Sub::kWriteReq);
}

void CrewManager::flush_fetch_batches() {
  fetch_flush_scheduled_ = false;
  auto batches = std::move(fetch_batch_);
  fetch_batch_.clear();
  for (auto& [target, list] : batches) {
    if (list.size() == 1) {
      // A batch of one gains nothing over the legacy message.
      send(target, list[0].page,
           list[0].mode == LockMode::kRead ? Sub::kReadReq : Sub::kWriteReq);
      continue;
    }
    for (std::size_t i = 0; i < list.size(); i += kMaxBatchPages) {
      const std::size_t n = std::min(kMaxBatchPages, list.size() - i);
      const std::uint64_t seq = next_batch_seq_++;
      Encoder e;
      e.u64(seq);
      e.u32(static_cast<std::uint32_t>(n));
      for (std::size_t j = 0; j < n; ++j) {
        e.addr(list[i + j].page);
        e.u8(static_cast<std::uint8_t>(list[i + j].mode));
      }
      host_.send_page_batch(target, ProtocolId::kCrew, /*request=*/true,
                            std::move(e).take());
      batch_pages_->record(n);
      batch_sent_at_[seq] = host_.now();
      // Responses to dropped batches never arrive; keep the latency map
      // bounded by shedding the oldest entries.
      while (batch_sent_at_.size() > 128) {
        batch_sent_at_.erase(batch_sent_at_.begin());
      }
    }
  }
}

void CrewManager::on_request_timeout(GlobalAddress page) {
  auto& st = state(page);
  if (!st.request_outstanding) return;
  st.request_timer = 0;
  if (++st.retries > host_.max_retries()) {
    st.request_outstanding = false;
    st.retries = 0;
    fail_waiters(page, ErrorCode::kUnreachable);
    return;
  }
  st.request_outstanding = false;
  // Requester rounds pace through the host's RPC-engine backoff policy
  // (capped jittered exponential) instead of resending immediately; 0 —
  // the default for minimal hosts — keeps the legacy immediate resend.
  const Micros delay = host_.retry_backoff(st.retries);
  if (delay == 0) {
    resend_request(page);
    return;
  }
  st.request_timer =
      host_.schedule(delay, [this, page] { resend_request(page); });
}

void CrewManager::resend_request(const GlobalAddress& page) {
  auto& st = state(page);
  st.request_timer = 0;
  // The round may have ended while we waited out the backoff: a late grant
  // drained the waiters (finish_round cancelled the timer, but a direct
  // call skips it) or a failure path emptied the queue.
  if (st.request_outstanding || st.waiters.empty()) return;
  send_request(page, st.requested_mode);
}

void CrewManager::fail_waiters(const GlobalAddress& page, ErrorCode e) {
  auto& st = state(page);
  std::deque<Waiter> waiters;
  waiters.swap(st.waiters);
  for (auto& w : waiters) w.done(e);
}

// --------------------------------------------------------------------------
// Home side
// --------------------------------------------------------------------------

void CrewManager::home_handle(const GlobalAddress& page, NodeId from,
                              LockMode mode) {
  if (mode != LockMode::kRead && host_.write_gated(page)) {
    // Home fail-over is still rebuilding this region's replica floor
    // (docs/recovery.md): hold the write grant and re-check shortly.
    // Reads keep flowing. The requester's own retry timer covers a lost
    // wakeup, so the deferral needs no bookkeeping.
    host_.schedule(host_.rpc_timeout() / 4, [this, page, from, mode] {
      home_handle(page, from, mode);
    });
    return;
  }
  auto& st = state(page);
  // Dedupe retransmissions.
  if (st.busy && st.in_flight_requester == from && st.in_flight_mode == mode) {
    return;
  }
  for (const auto& r : st.pending) {
    if (r.from == from && r.mode == mode) return;
  }
  if (st.busy || !st.pending.empty() ||
      held_at_home(host_.page_info(page), from, host_.self(), mode)) {
    st.pending.push_back({from, mode});
    return;
  }
  home_start(page, from, mode);
}

void CrewManager::home_start(const GlobalAddress& page, NodeId from,
                             LockMode mode) {
  auto& st = state(page);
  auto& info = host_.page_info(page);
  const NodeId self = host_.self();
  info.homed_locally = true;
  st.busy = true;
  st.in_flight_requester = from;
  st.in_flight_mode = mode;

  if (mode == LockMode::kRead) {
    if (info.owner == from) {
      // The recorded owner lost its copy (restart); fall back to the
      // home's copy and reclaim ownership.
      info.owner = self;
    }
    if (info.owner == self || info.owner == kNoNode) {
      home_serve_data(page, from);
      home_finish(page);
      return;
    }
    // The exclusive owner must downgrade and supply the data (Figure 2
    // steps 6-9 with the owner in the Node B role).
    send(info.owner, page, Sub::kDowngradeReq,
         [from](Encoder& e) { e.u32(from); });
    st.home_timer = host_.schedule(host_.rpc_timeout(),
                                   [this, page] { on_home_timeout(page); });
    return;
  }

  // Write request: invalidate every copy except the requester's, then
  // transfer ownership.
  st.awaiting_inv_acks.clear();
  for (NodeId n : info.sharers) {
    if (n != from && n != self && n != info.owner && n != kNoNode) {
      st.awaiting_inv_acks.insert(n);
    }
  }
  for (NodeId n : st.awaiting_inv_acks) send(n, page, Sub::kInvalidate);
  if (st.awaiting_inv_acks.empty()) {
    home_continue_after_invs(page);
  } else {
    st.home_timer = host_.schedule(host_.rpc_timeout(),
                                   [this, page] { on_home_timeout(page); });
  }
}

void CrewManager::home_continue_after_invs(const GlobalAddress& page) {
  auto& st = state(page);
  auto& info = host_.page_info(page);
  const NodeId self = host_.self();
  const NodeId to = st.in_flight_requester;

  if (st.home_timer != 0) {
    host_.cancel(st.home_timer);
    st.home_timer = 0;
  }

  if (info.owner == self || info.owner == kNoNode) {
    home_grant_ownership(page, to);
    home_finish(page);
    return;
  }
  if (info.owner == to) {
    // Requester already owns the data (upgrade after invalidations).
    send(to, page, Sub::kOwner, [&info](Encoder& e) {
      e.u64(info.version);
      e.bytes(Bytes{});  // metadata-only grant; owner already has the bytes
    });
    info.sharers = {to};
    if (to != self && info.state != PS::kInvalid) {
      // The home's own shared copy dies with the upgrade too.
      info.state = PS::kInvalid;
    }
    home_finish(page);
    return;
  }
  // Ask the current owner to ship data + ownership directly to the
  // requester.
  send(info.owner, page, Sub::kXferReq,
       [to](Encoder& e) { e.u32(to); });
  st.home_timer = host_.schedule(host_.rpc_timeout(),
                                 [this, page] { on_home_timeout(page); });
}

void CrewManager::home_serve_data(const GlobalAddress& page, NodeId to,
                                  Encoder* batch) {
  auto& info = host_.page_info(page);
  const Bytes* data = host_.page_data(page);
  Bytes copy = data != nullptr ? *data
                               : Bytes(host_.page_size_of(page), 0);
  if (batch != nullptr) {
    batch->addr(page);
    batch->u8(static_cast<std::uint8_t>(Sub::kData));
    batch->u64(info.version);
    batch->bytes(copy);
  } else {
    send(to, page, Sub::kData, [&](Encoder& e) {
      e.u64(info.version);
      e.bytes(copy);
    });
  }
  info.sharers.insert(to);
  if (info.owner == kNoNode) info.owner = host_.self();
  if (to != host_.self() && info.state == PS::kExclusive) {
    // Another node now shares the page: exclusivity is gone, and the next
    // local write must run the invalidation round.
    info.state = PS::kShared;
  }
}

void CrewManager::home_grant_ownership(const GlobalAddress& page, NodeId to,
                                       Encoder* batch) {
  auto& info = host_.page_info(page);
  const NodeId self = host_.self();
  const Bytes* data = host_.page_data(page);
  Bytes copy = data != nullptr ? *data
                               : Bytes(host_.page_size_of(page), 0);
  if (batch != nullptr) {
    batch->addr(page);
    batch->u8(static_cast<std::uint8_t>(Sub::kOwner));
    batch->u64(info.version);
    batch->bytes(copy);
  } else {
    send(to, page, Sub::kOwner, [&](Encoder& e) {
      e.u64(info.version);
      e.bytes(copy);
    });
  }
  info.owner = to;
  info.sharers = {to};
  if (to != self) {
    // Home keeps its (now stale) bytes as a fault-tolerance fallback but
    // marks them invalid so they are never served as current.
    info.state = PS::kInvalid;
  }
  // Deliberately no copyset-change notification here: the grantee is
  // about to write, so re-replicating now would push soon-stale data and
  // mask the real replication need. Replica maintenance runs on the
  // dirty release instead.
}

void CrewManager::home_finish(const GlobalAddress& page) {
  auto& st = state(page);
  if (st.home_timer != 0) {
    host_.cancel(st.home_timer);
    st.home_timer = 0;
  }
  st.busy = false;
  st.in_flight_requester = kNoNode;
  st.in_flight_mode = LockMode::kNone;
  st.awaiting_inv_acks.clear();
  home_drain_queue(page);
  // Local waiters held back during a remote write look again.
  try_grant_local(page);
}

void CrewManager::home_drain_queue(const GlobalAddress& page) {
  auto& st = state(page);
  if (st.busy || st.pending.empty()) return;
  const RemoteReq next = st.pending.front();
  if (held_at_home(host_.page_info(page), next.from, host_.self(),
                   next.mode)) {
    return;  // release() drains again when the local holds drop
  }
  st.pending.pop_front();
  home_start(page, next.from, next.mode);
}

void CrewManager::on_home_timeout(GlobalAddress page) {
  auto& st = state(page);
  if (!st.busy) return;
  st.home_timer = 0;
  auto& info = host_.page_info(page);
  const NodeId self = host_.self();

  if (!st.awaiting_inv_acks.empty()) {
    // Unresponsive sharers are presumed dead: drop them from the copyset
    // and move on (their copies die with them).
    for (NodeId n : st.awaiting_inv_acks) info.sharers.erase(n);
    st.awaiting_inv_acks.clear();
    home_continue_after_invs(page);
    return;
  }

  // The owner did not respond to a downgrade/transfer: presume it dead and
  // fall back to the home's own latest copy, if one exists.
  info.sharers.erase(info.owner);
  if (host_.page_data(page) != nullptr) {
    info.owner = self;
    info.state = PS::kShared;
    if (st.in_flight_mode == LockMode::kRead) {
      home_serve_data(page, st.in_flight_requester);
    } else {
      home_grant_ownership(page, st.in_flight_requester);
    }
    home_finish(page);
    return;
  }
  info.owner = kNoNode;
  send(st.in_flight_requester, page, Sub::kNack, [](Encoder& e) {
    e.u8(static_cast<std::uint8_t>(ErrorCode::kUnreachable));
  });
  home_finish(page);
}

// --------------------------------------------------------------------------
// Batched data plane
// --------------------------------------------------------------------------

// Request: u64 batch_seq, u32 count, count * { addr page, u8 mode }.
// Response chunk: u64 batch_seq, u32 count, count * { addr page, u8 sub,
// sub-specific body } — each entry body is byte-identical to the matching
// per-page kData/kOwner/kNack payload, so the requester replays entries
// through the ordinary on_message switch.
void CrewManager::on_batch_fetch(NodeId from, Decoder& d) {
  const std::uint64_t seq = d.u64();
  const std::uint32_t n = d.u32();
  const NodeId self = host_.self();

  Encoder out;
  std::uint32_t out_n = 0;
  auto flush = [&] {
    if (out_n == 0) return;
    Encoder resp;
    resp.u64(seq);
    resp.u32(out_n);
    resp.raw(std::move(out).take());
    host_.send_page_batch(from, ProtocolId::kCrew, /*request=*/false,
                          std::move(resp).take());
    out = Encoder{};
    out_n = 0;
  };

  for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
    const GlobalAddress page = d.addr();
    auto mode = static_cast<LockMode>(d.u8());
    if (!d.ok()) break;
    if (mode == LockMode::kWriteShared) mode = LockMode::kWrite;
    auto& st = state(page);
    auto& info = host_.page_info(page);

    if (!host_.is_home(page)) {
      // Same policy as the per-page path: an alternate home may serve
      // reads from a valid replica; everything else bounces so the
      // requester re-resolves.
      const Bytes* copy = host_.page_data(page);
      if (mode == LockMode::kRead && info.state != PS::kInvalid &&
          copy != nullptr) {
        out.addr(page);
        out.u8(static_cast<std::uint8_t>(Sub::kData));
        out.u64(info.version);
        out.bytes(*copy);
        ++out_n;
      } else {
        out.addr(page);
        out.u8(static_cast<std::uint8_t>(Sub::kNack));
        out.u8(static_cast<std::uint8_t>(ErrorCode::kNotFound));
        ++out_n;
      }
    } else if (st.busy || !st.pending.empty() ||
               held_at_home(info, from, self, mode)) {
      // A directory transaction is in flight, or the home's own holds
      // conflict; queue behind them and let the reply travel per-page.
      home_handle(page, from, mode);
    } else {
      info.homed_locally = true;
      if (mode == LockMode::kRead) {
        if (info.owner == from) {
          // The recorded owner lost its copy (restart); reclaim.
          info.owner = self;
        }
        if (info.owner == self || info.owner == kNoNode) {
          home_serve_data(page, from, &out);
          ++out_n;
        } else {
          home_handle(page, from, mode);  // third-party downgrade round
        }
      } else if (host_.write_gated(page)) {
        // Replica floor still rebuilding after a fail-over promotion: the
        // deferred path lives in home_handle.
        home_handle(page, from, mode);
      } else {
        bool needs_inv = false;
        for (NodeId s : info.sharers) {
          if (s != from && s != self && s != info.owner && s != kNoNode) {
            needs_inv = true;
            break;
          }
        }
        if (!needs_inv && (info.owner == self || info.owner == kNoNode)) {
          home_grant_ownership(page, from, &out);
          ++out_n;
        } else if (!needs_inv && info.owner == from) {
          // Upgrade: the requester already holds the bytes.
          out.addr(page);
          out.u8(static_cast<std::uint8_t>(Sub::kOwner));
          out.u64(info.version);
          out.bytes(Bytes{});
          ++out_n;
          info.sharers = {from};
          if (from != self && info.state != PS::kInvalid) {
            info.state = PS::kInvalid;
          }
        } else {
          home_handle(page, from, mode);  // invalidation / transfer round
        }
      }
    }
    if (out.size() >= kBatchRespBytesCap) flush();
  }
  flush();
}

void CrewManager::on_batch_grant(NodeId from, Decoder& d) {
  const std::uint64_t seq = d.u64();
  auto sent = batch_sent_at_.find(seq);
  if (sent != batch_sent_at_.end()) {
    batch_rpc_us_->record(
        static_cast<std::uint64_t>(host_.now() - sent->second));
    batch_sent_at_.erase(sent);
  }
  const std::uint32_t n = d.u32();
  for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
    const GlobalAddress page = d.addr();
    if (!d.ok()) break;
    // Entry bodies reuse the per-page encodings, so the regular message
    // switch installs data, grants waiters and runs deferrals per page.
    on_message(from, page, d);
  }
}

// --------------------------------------------------------------------------
// Holder side
// --------------------------------------------------------------------------

void CrewManager::holder_apply_invalidate(const GlobalAddress& page,
                                          NodeId home) {
  auto& info = host_.page_info(page);
  info.state = PS::kInvalid;
  if (!info.homed_locally) host_.drop_page(page);
  send(home, page, Sub::kInvAck);
}

void CrewManager::holder_apply_downgrade(const GlobalAddress& page,
                                         NodeId requester) {
  auto& info = host_.page_info(page);
  const Bytes* data = host_.page_data(page);
  Bytes copy = data != nullptr ? *data
                               : Bytes(host_.page_size_of(page), 0);
  info.state = PS::kShared;
  // Serve the reader directly (Figure 2 step 9: B's daemon supplies the
  // copy straight to A) and give the home a current copy for its records.
  send(requester, page, Sub::kData, [&](Encoder& e) {
    e.u64(info.version);
    e.bytes(copy);
  });
  send(host_.home_of(page), page, Sub::kDowngradeDone, [&](Encoder& e) {
    e.u64(info.version);
    e.bytes(copy);
  });
}

void CrewManager::holder_apply_xfer(const GlobalAddress& page,
                                    NodeId requester) {
  auto& info = host_.page_info(page);
  const Bytes* data = host_.page_data(page);
  Bytes copy = data != nullptr ? *data
                               : Bytes(host_.page_size_of(page), 0);
  send(requester, page, Sub::kOwner, [&](Encoder& e) {
    e.u64(info.version);
    e.bytes(copy);
  });
  send(host_.home_of(page), page, Sub::kXferDone,
       [&info](Encoder& e) { e.u64(info.version); });
  info.state = PS::kInvalid;
  info.owner = requester;
  if (!info.homed_locally) host_.drop_page(page);
}

void CrewManager::maybe_run_deferred(const GlobalAddress& page) {
  auto& st = state(page);
  auto& info = host_.page_info(page);
  if (info.locked()) return;
  if (st.deferred_invalidate) {
    st.deferred_invalidate = false;
    const NodeId home = st.deferred_inv_home;
    st.deferred_inv_home = kNoNode;
    holder_apply_invalidate(page, home);
  }
  // Downgrades and transfers serve page data, so beyond waiting for local
  // holds they must wait for a valid copy to exist: a kXferReq/kDowngradeReq
  // can overtake the kOwner grant that makes this node the owner (the home
  // learns of the transfer from the old owner's kXferDone, which races the
  // old owner's direct kOwner to us on a different connection). Deferring
  // until the data lands — see the kData/kOwner handlers — instead of
  // serving zeros/stale bytes is what keeps two TCP writers from losing
  // updates.
  if (st.deferred_downgrade_to != kNoNode && info.write_holds == 0 &&
      info.state != PS::kInvalid) {
    const NodeId to = st.deferred_downgrade_to;
    st.deferred_downgrade_to = kNoNode;
    holder_apply_downgrade(page, to);
  }
  if (st.deferred_xfer_to != kNoNode && info.state != PS::kInvalid) {
    const NodeId to = st.deferred_xfer_to;
    st.deferred_xfer_to = kNoNode;
    holder_apply_xfer(page, to);
  }
}

// --------------------------------------------------------------------------
// Release / messages / eviction / failures
// --------------------------------------------------------------------------

void CrewManager::release(const GlobalAddress& page, LockMode mode,
                          bool dirty) {
  auto& info = host_.page_info(page);
  if (mode == LockMode::kRead) {
    if (info.read_holds > 0) --info.read_holds;
  } else {
    if (info.write_holds > 0) --info.write_holds;
    if (dirty) {
      info.dirty = true;
      ++info.version;
    }
  }
  maybe_run_deferred(page);
  // Remote requests the home's own holds held back go first, so a stream
  // of local holds cannot starve them.
  home_drain_queue(page);
  try_grant_local(page);
  if (is_write(mode) && dirty) host_.note_copyset_change(page);
}

void CrewManager::on_message(NodeId from, const GlobalAddress& page,
                             Decoder& d) {
  const auto sub = static_cast<Sub>(d.u8());
  auto& st = state(page);
  auto& info = host_.page_info(page);

  switch (sub) {
    case Sub::kReadReq:
    case Sub::kWriteReq: {
      if (!host_.is_home(page)) {
        // Not this page's home. Two sub-cases:
        //  * We hold a valid replica and the request is a read: serve it —
        //    this is the min-replica availability path ("if a node storing
        //    a copy ... is accessible ... the data itself must be
        //    available", Section 2), reached when the requester fails over
        //    to an alternate home.
        //  * Otherwise (a write, or no copy): a stale home pointer "will
        //    simply result in a message being sent to a node that no
        //    longer is home" (Section 3.2) — refuse rather than fabricate
        //    data, so the requester re-resolves. Writes always need the
        //    real home's directory authority.
        const Bytes* copy = host_.page_data(page);
        if (sub == Sub::kReadReq && info.state != PS::kInvalid &&
            copy != nullptr) {
          send(from, page, Sub::kData, [&](Encoder& e) {
            e.u64(info.version);
            e.bytes(*copy);
          });
          break;
        }
        send(from, page, Sub::kNack, [](Encoder& e) {
          e.u8(static_cast<std::uint8_t>(ErrorCode::kNotFound));
        });
        break;
      }
      home_handle(page, from,
                  sub == Sub::kReadReq ? LockMode::kRead : LockMode::kWrite);
      break;
    }

    case Sub::kData: {
      const Version v = d.u64();
      Bytes data = d.bytes();
      // Unsolicited grant (duplicate delivery, or a late response after the
      // round was abandoned): installing it could resurrect a copy the
      // directory no longer tracks, so drop it.
      if (!st.request_outstanding && st.waiters.empty()) break;
      const bool stale = st.invalidated_in_flight;
      finish_round(st);
      st.retries = 0;
      if (stale) {
        try_grant_local(page);  // still invalid: sends a fresh request
        break;
      }
      install_data(page, v, std::move(data), PS::kShared);
      try_grant_local(page);
      // A downgrade that overtook this grant can run now that data exists
      // (or once the waiters it just granted release).
      maybe_run_deferred(page);
      break;
    }
    case Sub::kOwner: {
      const Version v = d.u64();
      Bytes data = d.bytes();
      if (!st.request_outstanding && st.waiters.empty()) break;
      finish_round(st);
      st.retries = 0;
      install_data(page, v, std::move(data), PS::kExclusive);
      info.owner = host_.self();
      try_grant_local(page);
      // A transfer request that overtook this ownership grant was deferred;
      // run it now that the data is here (unless a waiter just took a hold,
      // in which case release re-runs it).
      maybe_run_deferred(page);
      break;
    }

    case Sub::kInvalidate: {
      if (info.locked()) {
        // Delay the conflicting invalidation until local holders release
        // (Section 3.3).
        st.deferred_invalidate = true;
        st.deferred_inv_home = from;
      } else {
        // A downgrading owner sends our read data on its own connection,
        // so this invalidate can overtake it; the copy it names is then
        // the one still in flight.
        if (info.state == PS::kInvalid && st.request_outstanding &&
            st.requested_mode == LockMode::kRead) {
          st.invalidated_in_flight = true;
        }
        holder_apply_invalidate(page, from);
      }
      break;
    }
    case Sub::kInvAck: {
      st.awaiting_inv_acks.erase(from);
      if (st.busy && st.awaiting_inv_acks.empty() &&
          st.in_flight_mode == LockMode::kWrite) {
        home_continue_after_invs(page);
      }
      break;
    }

    case Sub::kDowngradeReq: {
      const NodeId requester = d.u32();
      // Also defer when we have no valid copy yet: the home addressed us
      // as owner, so our kOwner grant is still in flight (cross-connection
      // reordering) — serving now would fabricate stale data.
      if (info.write_holds > 0 || info.state == PS::kInvalid) {
        st.deferred_downgrade_to = requester;
      } else {
        holder_apply_downgrade(page, requester);
      }
      break;
    }
    case Sub::kDowngradeDone: {
      const Version v = d.u64();
      Bytes data = d.bytes();
      install_data(page, v, std::move(data), PS::kShared);
      if (st.busy) {
        info.sharers.insert(st.in_flight_requester);
        info.sharers.insert(from);
        host_.note_copyset_change(page);
        home_finish(page);
      }
      break;
    }

    case Sub::kXferReq: {
      const NodeId requester = d.u32();
      // Defer while locked, and also while we hold no valid copy: the home
      // believes we own the page, so ownership (with data) is still on its
      // way to us on another connection. Transferring before it lands
      // would hand the requester zeros or stale bytes — the lost-update
      // race two concurrent TCP writers used to hit.
      if (info.locked() || info.state == PS::kInvalid) {
        st.deferred_xfer_to = requester;
      } else {
        holder_apply_xfer(page, requester);
      }
      break;
    }
    case Sub::kXferDone: {
      const Version v = d.u64();
      info.version = std::max(info.version, v);
      if (st.busy) {
        info.owner = st.in_flight_requester;
        info.sharers = {st.in_flight_requester};
        if (info.owner != host_.self()) {
          // The home's own copy is now stale; keep the bytes as a fault
          // fallback but never serve them as current.
          info.state = PS::kInvalid;
        }
        host_.note_copyset_change(page);
        home_finish(page);
      }
      break;
    }

    case Sub::kNack: {
      const auto e = static_cast<ErrorCode>(d.u8());
      finish_round(st);
      fail_waiters(page, e);
      break;
    }

    case Sub::kDropCopy: {
      info.sharers.erase(from);
      if (info.owner == from) info.owner = kNoNode;
      host_.note_copyset_change(page);
      break;
    }
  }
}

bool CrewManager::on_evict(const GlobalAddress& page) {
  auto& info = host_.page_info(page);
  const NodeId self = host_.self();
  if (info.locked()) return false;
  if (info.homed_locally) return false;  // home keeps directory + fallback
  if (info.owner == self && info.state == PS::kExclusive) {
    return false;  // sole current copy; dropping it would lose data
  }
  if (info.state != PS::kInvalid) {
    send(host_.home_of(page), page, Sub::kDropCopy);
    info.state = PS::kInvalid;
  }
  return true;
}

void CrewManager::on_node_down(NodeId node) {
  for (auto& [page, st] : pages_) {
    auto& info = host_.page_info(page);
    info.sharers.erase(node);
    if (info.owner == node) {
      if (info.homed_locally && host_.page_data(page) != nullptr) {
        info.owner = host_.self();
        info.state = PS::kShared;
      } else if (info.homed_locally) {
        info.owner = kNoNode;
      }
    }
    if (st.awaiting_inv_acks.erase(node) > 0 && st.busy &&
        st.awaiting_inv_acks.empty() &&
        st.in_flight_mode == LockMode::kWrite) {
      home_continue_after_invs(page);
    }
  }
}

}  // namespace khz::consistency
