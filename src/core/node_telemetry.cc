// Telemetry plane for core::Node: stats scraping, self-sampling and the
// slow-op flight recorder (docs/observability.md). Split out of node.cc
// so each core TU stays one subsystem.
#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "core/node.h"

namespace khz::core {

using consistency::LockContext;
using consistency::LockMode;
using consistency::ProtocolId;
using net::Message;
using net::MsgType;
using storage::PageState;

// ---------------------------------------------------------------------------
// Telemetry plane: stats scraping, self-sampling, slow-op flight recorder
// (docs/observability.md)
// ---------------------------------------------------------------------------

void Node::on_stats_req(const Message& m) {
  Decoder req(m.payload);
  const std::uint8_t flags = req.u8();
  ins_.scrapes_served->inc();

  Encoder e;
  e.u8(static_cast<std::uint8_t>(ErrorCode::kOk));
  e.u32(config_.id);
  e.u64(static_cast<std::uint64_t>(now()));
  e.u8(flags);
  metrics_.snapshot().encode(e);
  if ((flags & kScrapeSeries) != 0) {
    e.u64(series_.dropped());
    const auto samples = series_.samples();
    e.u32(static_cast<std::uint32_t>(samples.size()));
    for (const auto& s : samples) {
      e.u64(static_cast<std::uint64_t>(s.at));
      s.delta.encode(e);
    }
  }
  if ((flags & kScrapeDossiers) != 0) {
    e.u64(flight_.dropped());
    const auto ds = flight_.dossiers();
    e.u32(static_cast<std::uint32_t>(ds.size()));
    for (const auto& od : ds) od.encode(e);
  }
  respond(m, MsgType::kStatsResp, std::move(e).take());
}

void Node::scrape_stats(NodeId peer, std::uint8_t flags, ScrapeCb cb) {
  Encoder e;
  e.u8(flags);
  // Issued untraced on purpose: the scrape must not pollute the span ring
  // it is about to export (the engine stamps the ambient context on every
  // attempt it sends).
  obs::ScopedTraceContext untraced(tracer_, {});
  engine_.call({peer}, MsgType::kStatsReq, std::move(e).take(),
               [cb = std::move(cb)](bool ok, Decoder& d) {
                 if (!ok) {
                   cb(ErrorCode::kTimeout);
                   return;
                 }
                 RemoteStats rs;
                 const ErrorCode ec = decode_stats_payload(d, rs);
                 if (ec != ErrorCode::kOk) {
                   cb(ec);
                   return;
                 }
                 cb(std::move(rs));
               });
}

ErrorCode Node::decode_stats_payload(Decoder& d, RemoteStats& out) {
  const auto status = static_cast<ErrorCode>(d.u8());
  if (status != ErrorCode::kOk) return status;
  out.node = d.u32();
  out.at = static_cast<Micros>(d.u64());
  const std::uint8_t got = d.u8();
  out.snapshot = obs::MetricsSnapshot::decode(d);
  if ((got & kScrapeSeries) != 0) {
    out.series_dropped = d.u64();
    const std::uint32_t n = d.u32();
    for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
      obs::MetricsSample s;
      s.at = static_cast<Micros>(d.u64());
      s.delta = obs::MetricsSnapshot::decode(d);
      out.series.push_back(std::move(s));
    }
  }
  if ((got & kScrapeDossiers) != 0) {
    out.dossiers_dropped = d.u64();
    const std::uint32_t n = d.u32();
    for (std::uint32_t i = 0; i < n && d.ok(); ++i) {
      out.dossiers.push_back(obs::OpDossier::decode(d));
    }
  }
  return d.ok() ? ErrorCode::kOk : ErrorCode::kCorrupt;
}

void Node::sample_tick() {
  ins_.samples->inc();
  obs::MetricsSnapshot cur = metrics_.snapshot();
  obs::MetricsSample s;
  s.at = now();
  s.delta = cur.diff(last_sample_);
  last_sample_ = std::move(cur);
  series_.push(std::move(s));
  sample_timer_ = transport_.schedule(config_.stats_sample_interval,
                                      [this] { sample_tick(); });
}

Node::OpWatch Node::watch_op() {
  OpWatch w;
  w.t0 = now();
  w.deadline = engine_.ambient_deadline();
  w.attempts0 = ins_.rpc_attempts->value();
  w.steered0 = ins_.rpc_steered->value();
  return w;
}

void Node::maybe_record_slow_op(const char* op, const OpWatch& w,
                                std::uint64_t trace_id) {
  const bool abs_on = config_.slow_op_threshold_us > 0;
  const bool frac_on = config_.slow_op_deadline_fraction > 0.0 &&
                       w.deadline > static_cast<std::uint64_t>(w.t0);
  if (!abs_on && !frac_on) return;
  const Micros end = now();
  const auto elapsed = static_cast<std::uint64_t>(end - w.t0);
  bool slow =
      abs_on &&
      elapsed >= static_cast<std::uint64_t>(config_.slow_op_threshold_us);
  if (!slow && frac_on) {
    const auto budget = static_cast<double>(w.deadline - w.t0);
    slow = static_cast<double>(elapsed) >=
           config_.slow_op_deadline_fraction * budget;
  }
  if (!slow) return;
  ins_.slow_ops->inc();
  obs::OpDossier d;
  d.op = op;
  d.node = config_.id;
  d.trace_id = trace_id;
  d.start = w.t0;
  d.end = end;
  d.deadline = w.deadline;
  d.rpc_attempts = ins_.rpc_attempts->value() - w.attempts0;
  d.rpc_steered = ins_.rpc_steered->value() - w.steered0;
  d.depth_protocol = admission_.depth(OpClass::kProtocol);
  d.depth_client = admission_.depth(OpClass::kClient);
  d.depth_replication = admission_.depth(OpClass::kReplication);
  if (trace_id != 0) {
    for (auto& s : tracer_.finished_spans()) {
      if (s.trace_id == trace_id) d.spans.push_back(std::move(s));
    }
  }
  flight_.record(std::move(d));
}


}  // namespace khz::core
