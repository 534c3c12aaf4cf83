// Causal operation tracing.
//
// A TraceContext (trace id + span id) rides in every net::Message envelope,
// so one client lock() produces a single causally-linked trace spanning the
// directory resolve, the home-node RPC, the CREW invalidation round and the
// final grant — across nodes. Each node's Tracer keeps an ambient "current
// context" (the node runs single-threaded, so this is just a variable set
// around each dispatched message), opens child spans under it, and parks
// finished spans in a bounded ring buffer exportable as Chrome trace-event
// JSON (load the file in chrome://tracing or Perfetto).
//
// Ids are (node_id << 40 | sequence), so spans minted on different nodes
// never collide and still fit in the 2^53 doubles of JSON consumers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.h"
#include "common/types.h"

namespace khz::obs {

/// The causal context carried in message envelopes: which trace the work
/// belongs to and which span caused it. Zero trace_id = not traced.
struct TraceContext {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  [[nodiscard]] bool active() const { return trace_id != 0; }
};

/// One finished unit of work inside a trace.
struct Span {
  std::uint64_t trace_id = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;  // 0 = root
  NodeId node = 0;
  Micros start = 0;
  Micros end = 0;
  std::string name;
};

/// Per-node span recorder, touched only in its node's execution context.
class Tracer {
 public:
  explicit Tracer(NodeId node, std::size_t capacity = 4096)
      : node_(node), capacity_(capacity == 0 ? 1 : capacity) {}

  /// Timestamps come from the node's transport clock (virtual time under
  /// the simulator, steady wall clock over TCP).
  void set_clock(const Clock* clock) { clock_ = clock; }

  /// Opens a span. With an active parent the span joins the parent's
  /// trace; otherwise it roots a new trace. Returns the context to stamp
  /// on outgoing messages / pass to end_span.
  TraceContext begin_span(std::string_view name, TraceContext parent = {});
  /// Closes the span (no-op if unknown, e.g. already aged out).
  void end_span(const TraceContext& ctx);

  /// Ambient context of the work currently executing on the node.
  [[nodiscard]] TraceContext current() const { return current_; }
  void set_current(TraceContext ctx) { current_ = ctx; }

  /// Finished spans, oldest first (at most `capacity`).
  [[nodiscard]] std::vector<Span> finished_spans() const;
  /// Finished spans overwritten by ring wrap-around.
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  void clear();

 private:
  [[nodiscard]] Micros now() const { return clock_ ? clock_->now() : 0; }
  std::uint64_t next_id();

  NodeId node_;
  std::size_t capacity_;
  const Clock* clock_ = nullptr;
  std::uint64_t next_seq_ = 1;
  TraceContext current_;
  std::map<std::uint64_t, Span> open_;  // span_id -> span in progress
  std::vector<Span> ring_;              // finished spans, bounded
  std::size_t ring_next_ = 0;           // overwrite cursor once full
  std::uint64_t dropped_ = 0;
};

/// RAII guard: installs `ctx` as the tracer's ambient context for a scope
/// and restores the previous one on exit.
class ScopedTraceContext {
 public:
  ScopedTraceContext(Tracer& tracer, TraceContext ctx)
      : tracer_(tracer), prev_(tracer.current()) {
    tracer_.set_current(ctx);
  }
  ~ScopedTraceContext() { tracer_.set_current(prev_); }
  ScopedTraceContext(const ScopedTraceContext&) = delete;
  ScopedTraceContext& operator=(const ScopedTraceContext&) = delete;

 private:
  Tracer& tracer_;
  TraceContext prev_;
};

/// Renders spans (typically concatenated from several nodes' tracers) as
/// Chrome trace-event JSON: "X" complete events, pid = node id, tid =
/// trace id, args carry the span/parent ids for causal reconstruction.
[[nodiscard]] std::string chrome_trace_json(const std::vector<Span>& spans);

}  // namespace khz::obs
