#include "obs/trace.h"

#include <cstdio>

namespace khz::obs {

namespace {
/// Open spans are bounded too: a span begun but never ended (e.g. a lock
/// whose callback is dropped by a test) must not leak forever.
constexpr std::size_t kMaxOpenSpans = 4096;
}  // namespace

std::uint64_t Tracer::next_id() {
  // (node << 40 | seq): unique across nodes, still exact in a double.
  return (static_cast<std::uint64_t>(node_) << 40) | (next_seq_++ & ((1ull << 40) - 1));
}

TraceContext Tracer::begin_span(std::string_view name, TraceContext parent) {
  Span s;
  s.span_id = next_id();
  s.trace_id = parent.active() ? parent.trace_id : s.span_id;
  s.parent_id = parent.active() ? parent.span_id : 0;
  s.node = node_;
  s.start = now();
  s.name.assign(name);
  if (open_.size() >= kMaxOpenSpans) {
    open_.erase(open_.begin());
    ++dropped_;
  }
  const TraceContext ctx{s.trace_id, s.span_id};
  open_.emplace(s.span_id, std::move(s));
  return ctx;
}

void Tracer::end_span(const TraceContext& ctx) {
  if (!ctx.active()) return;
  auto it = open_.find(ctx.span_id);
  if (it == open_.end()) return;
  Span s = std::move(it->second);
  open_.erase(it);
  s.end = now();
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(s));
    return;
  }
  ring_[ring_next_] = std::move(s);
  ring_next_ = (ring_next_ + 1) % capacity_;
  ++dropped_;
}

std::vector<Span> Tracer::finished_spans() const {
  std::vector<Span> out;
  out.reserve(ring_.size());
  // Once the ring wrapped, ring_next_ points at the oldest entry.
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(ring_next_ + i) % ring_.size()]);
  }
  return out;
}

void Tracer::clear() {
  ring_.clear();
  ring_next_ = 0;
  open_.clear();
  dropped_ = 0;
  current_ = {};
}

std::string chrome_trace_json(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  bool first = true;
  for (const Span& s : spans) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    for (char c : s.name) {
      if (c == '"' || c == '\\') out += '\\';
      if (static_cast<unsigned char>(c) >= 0x20) out += c;
    }
    const Micros dur = s.end >= s.start ? s.end - s.start : 0;
    std::snprintf(buf, sizeof(buf),
                  "\",\"cat\":\"khz\",\"ph\":\"X\",\"ts\":%lld,\"dur\":%lld,"
                  "\"pid\":%u,\"tid\":%llu,\"args\":{\"trace\":%llu,"
                  "\"span\":%llu,\"parent\":%llu}}",
                  static_cast<long long>(s.start),
                  static_cast<long long>(dur), s.node,
                  static_cast<unsigned long long>(s.trace_id),
                  static_cast<unsigned long long>(s.trace_id),
                  static_cast<unsigned long long>(s.span_id),
                  static_cast<unsigned long long>(s.parent_id));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace khz::obs
