// Observability subsystem tests: histogram bucket/percentile math, metric
// snapshot/diff, tracer ring semantics, log capture, and the end-to-end
// guarantee the tentpole promises — one client lock() yields a single
// causally-linked trace whose ids propagate across the RPC hop to the home
// node, exportable as well-formed Chrome trace-event JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <string>

#include "common/log.h"
#include "core/sim_world.h"
#include "core/tcp_world.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace khz {
namespace {

using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::MetricsSnapshot;
using obs::Span;
using obs::TraceContext;
using obs::Tracer;

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON well-formedness checker. Accepts the JSON
// our dumpers emit (objects, arrays, strings with escapes, numbers, bools,
// null); no semantic interpretation.
// ---------------------------------------------------------------------------

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }
  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }
  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }
  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) != 0 ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-')) {
      ++pos_;
    }
    return pos_ > start;
  }
  bool literal(const char* lit) {
    const std::size_t n = std::string(lit).size();
    if (s_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }
  [[nodiscard]] char peek() const { return pos_ < s_.size() ? s_[pos_] : 0; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])) != 0) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

bool json_valid(const std::string& text) { return JsonChecker(text).valid(); }

TEST(JsonChecker, SanityOnItself) {
  EXPECT_TRUE(json_valid(R"({"a":[1,2.5,-3e4],"b":{"c":"x\"y"},"d":null})"));
  EXPECT_FALSE(json_valid(R"({"a":1)"));
  EXPECT_FALSE(json_valid(R"({"a" 1})"));
  EXPECT_FALSE(json_valid("{} trailing"));
}

// ---------------------------------------------------------------------------
// Histogram math
// ---------------------------------------------------------------------------

TEST(Histogram, BucketIndexIsFloorLog2) {
  EXPECT_EQ(obs::histogram_bucket(0), 0u);
  EXPECT_EQ(obs::histogram_bucket(1), 0u);
  EXPECT_EQ(obs::histogram_bucket(2), 1u);
  EXPECT_EQ(obs::histogram_bucket(3), 1u);
  EXPECT_EQ(obs::histogram_bucket(4), 2u);
  EXPECT_EQ(obs::histogram_bucket(1023), 9u);
  EXPECT_EQ(obs::histogram_bucket(1024), 10u);
  EXPECT_EQ(obs::histogram_bucket(~0ULL), obs::kHistogramBuckets - 1);
}

TEST(Histogram, CountSumMax) {
  obs::Histogram h;
  for (std::uint64_t v : {5u, 10u, 100u, 1000u}) h.record(v);
  const HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 4u);
  EXPECT_EQ(s.sum, 1115u);
  EXPECT_EQ(s.max, 1000u);
  EXPECT_DOUBLE_EQ(s.mean(), 1115.0 / 4);
}

TEST(Histogram, PercentilesAreMonotonicAndClamped) {
  obs::Histogram h;
  // 90 fast ops around 10us, 10 slow ones around 1000us.
  for (int i = 0; i < 90; ++i) h.record(10);
  for (int i = 0; i < 10; ++i) h.record(1000);
  const HistogramSnapshot s = h.snapshot();
  const double p50 = s.percentile(50);
  const double p95 = s.percentile(95);
  const double p99 = s.percentile(99);
  // p50 lands in the 10us bucket [8,16); p95/p99 in the 1000us bucket.
  EXPECT_GE(p50, 8.0);
  EXPECT_LT(p50, 16.0);
  EXPECT_GE(p95, 512.0);
  EXPECT_LE(p95, 1000.0);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  EXPECT_LE(p99, static_cast<double>(s.max));
  EXPECT_DOUBLE_EQ(s.percentile(100), 1000.0);  // clamped to observed max
}

TEST(Histogram, EmptyPercentileIsZero) {
  obs::Histogram h;
  EXPECT_DOUBLE_EQ(h.snapshot().percentile(50), 0.0);
}

TEST(Histogram, DiffSubtractsEarlierSnapshot) {
  obs::Histogram h;
  h.record(10);
  h.record(20);
  const HistogramSnapshot before = h.snapshot();
  h.record(40);
  h.record(80);
  const HistogramSnapshot d = h.snapshot().diff(before);
  EXPECT_EQ(d.count, 2u);
  EXPECT_EQ(d.sum, 120u);
  EXPECT_EQ(d.max, 80u);  // max carried from the later snapshot
}

// ---------------------------------------------------------------------------
// Registry snapshot / diff / dumps
// ---------------------------------------------------------------------------

TEST(MetricsRegistry, SnapshotDiff) {
  MetricsRegistry reg;
  reg.counter("ops").inc(3);
  reg.histogram("lat_us").record(7);
  const MetricsSnapshot before = reg.snapshot();

  reg.counter("ops").inc(2);
  reg.counter("errors").inc();
  reg.histogram("lat_us").record(9);

  const MetricsSnapshot d = reg.snapshot().diff(before);
  EXPECT_EQ(d.counters.at("ops"), 2u);
  EXPECT_EQ(d.counters.at("errors"), 1u);  // absent earlier = zero there
  EXPECT_EQ(d.histograms.at("lat_us").count, 1u);
  EXPECT_EQ(d.histograms.at("lat_us").sum, 9u);
}

TEST(MetricsRegistry, CounterSetOverwrites) {
  MetricsRegistry reg;
  auto& c = reg.counter("mirrored");
  c.inc(5);
  c.set(2);
  EXPECT_EQ(c.value(), 2u);
}

TEST(MetricsRegistry, StableReferences) {
  MetricsRegistry reg;
  obs::Counter* a = &reg.counter("a");
  for (int i = 0; i < 100; ++i) {
    reg.counter("filler" + std::to_string(i));
  }
  EXPECT_EQ(a, &reg.counter("a"));  // map nodes never move
}

TEST(MetricsRegistry, DumpsAreWellFormed) {
  MetricsRegistry reg;
  reg.counter("node.reads").inc(4);
  reg.histogram("op.read_us").record(12);
  const std::string text = reg.dump_text();
  EXPECT_NE(text.find("node.reads"), std::string::npos);
  EXPECT_NE(text.find("op.read_us"), std::string::npos);
  const std::string json = reg.dump_json();
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"node.reads\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

TEST(Tracer, RootSpanStartsNewTrace) {
  Tracer t(3);
  const TraceContext root = t.begin_span("op:lock");
  EXPECT_TRUE(root.active());
  EXPECT_EQ(root.trace_id, root.span_id);  // roots self-identify
  EXPECT_EQ(root.span_id >> 40, 3u);       // node id in the high bits
  t.end_span(root);
  const auto spans = t.finished_spans();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "op:lock");
  EXPECT_EQ(spans[0].parent_id, 0u);
}

TEST(Tracer, ChildJoinsParentTrace) {
  Tracer t(1);
  const TraceContext root = t.begin_span("op:read");
  const TraceContext child = t.begin_span("rpc:PageFetchReq", root);
  EXPECT_EQ(child.trace_id, root.trace_id);
  EXPECT_NE(child.span_id, root.span_id);
  t.end_span(child);
  t.end_span(root);
  const auto spans = t.finished_spans();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].parent_id, root.span_id);  // child finished first
  EXPECT_EQ(spans[1].parent_id, 0u);
}

TEST(Tracer, EndOfUnknownSpanIsNoop) {
  Tracer t(1);
  t.end_span({42, 99});
  t.end_span({});
  EXPECT_TRUE(t.finished_spans().empty());
}

TEST(Tracer, RingIsBoundedAndCountsDrops) {
  Tracer t(1, /*capacity=*/4);
  for (int i = 0; i < 10; ++i) {
    t.end_span(t.begin_span("s" + std::to_string(i)));
  }
  const auto spans = t.finished_spans();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(t.dropped(), 6u);
  EXPECT_EQ(spans.front().name, "s6");  // oldest survivor
  EXPECT_EQ(spans.back().name, "s9");
}

TEST(Tracer, ScopedContextRestores) {
  Tracer t(1);
  const TraceContext outer = t.begin_span("outer");
  t.set_current(outer);
  {
    obs::ScopedTraceContext scope(t, {123, 456});
    EXPECT_EQ(t.current().trace_id, 123u);
  }
  EXPECT_EQ(t.current().trace_id, outer.trace_id);
  t.set_current({});
  t.end_span(outer);
}

TEST(Tracer, ChromeTraceJsonShape) {
  Tracer t(2);
  const TraceContext root = t.begin_span("op:write");
  t.end_span(t.begin_span("rpc:OwnershipReq", root));
  t.end_span(root);
  const std::string json = obs::chrome_trace_json(t.finished_spans());
  EXPECT_TRUE(json_valid(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"op:write\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Log sink capture
// ---------------------------------------------------------------------------

TEST(LogCapture, CapturesLinesAndNodePrefix) {
  std::vector<std::string> lines;
  {
    LogCapture cap;
    set_thread_log_node(7);
    KHZ_INFO("observability test line %d", 42);
    set_thread_log_node(~0u);  // clear
    lines = cap.lines();
  }
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("observability test line 42"), std::string::npos);
  EXPECT_NE(lines[0].find("n7"), std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end: one lock() = one cross-node trace (simulator)
// ---------------------------------------------------------------------------

TEST(TraceIntegration, LockProducesCrossNodeTrace) {
  core::SimWorld world({.nodes = 3});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  const AddressRange page{base.value(), 4096};
  ASSERT_TRUE(world.put(0, page, Bytes(4096, 0x5A)).ok());

  // Clear the setup noise so the assertions see exactly one client op.
  for (std::size_t i = 0; i < world.size(); ++i) {
    world.node(static_cast<NodeId>(i)).tracer().clear();
  }

  auto ctx = world.lock(1, page, consistency::LockMode::kRead);
  ASSERT_TRUE(ctx.ok());
  auto data = world.read(1, ctx.value(), 0, 4096);
  ASSERT_TRUE(data.ok());
  world.unlock(1, ctx.value());

  const auto client_spans = world.node(1).tracer().finished_spans();
  const auto lock_span =
      std::find_if(client_spans.begin(), client_spans.end(),
                   [](const Span& s) { return s.name == "op:lock"; });
  ASSERT_NE(lock_span, client_spans.end());
  EXPECT_EQ(lock_span->parent_id, 0u);  // client op roots the trace
  const std::uint64_t trace = lock_span->trace_id;

  // The resolve/CM RPCs are children of the op span, in the same trace.
  const auto rpc_child = std::find_if(
      client_spans.begin(), client_spans.end(), [&](const Span& s) {
        return s.trace_id == trace && s.name.rfind("rpc:", 0) == 0;
      });
  ASSERT_NE(rpc_child, client_spans.end());

  // The trace id crossed the wire: the home node handled traced requests.
  const auto home_spans = world.node(0).tracer().finished_spans();
  const auto rx_span = std::find_if(
      home_spans.begin(), home_spans.end(), [&](const Span& s) {
        return s.trace_id == trace && s.name.rfind("rx:", 0) == 0;
      });
  ASSERT_NE(rx_span, home_spans.end());
  EXPECT_NE(rx_span->parent_id, 0u);  // parented to the client-side sender

  // op:read exists too, and the whole thing exports as valid trace JSON.
  EXPECT_NE(std::find_if(client_spans.begin(), client_spans.end(),
                         [](const Span& s) { return s.name == "op:read"; }),
            client_spans.end());
  const std::string json = world.trace_json();
  EXPECT_TRUE(json_valid(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("op:lock"), std::string::npos);
}

TEST(TraceIntegration, UntracedBackgroundTrafficStaysOutOfRing) {
  core::SimWorld world({.nodes = 2, .ping_interval = 10'000});
  for (std::size_t i = 0; i < world.size(); ++i) {
    world.node(static_cast<NodeId>(i)).tracer().clear();
  }
  world.pump_for(200'000);  // pings fly, no client ops
  for (std::size_t i = 0; i < world.size(); ++i) {
    for (const auto& s :
         world.node(static_cast<NodeId>(i)).tracer().finished_spans()) {
      // Background pings are issued outside any op span, so nothing may
      // open rpc:/rx: spans for them.
      EXPECT_TRUE(s.name.rfind("rpc:", 0) != 0 &&
                  s.name.rfind("rx:", 0) != 0)
          << s.name;
    }
  }
}

TEST(MetricsIntegration, SimWorldOpsShowUpInRegistry) {
  core::SimWorld world({.nodes = 3});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  const AddressRange page{base.value(), 4096};
  ASSERT_TRUE(world.put(0, page, Bytes(4096, 1)).ok());
  ASSERT_TRUE(world.get(1, page).ok());

  const MetricsSnapshot s = world.node(1).metrics().snapshot();
  EXPECT_GE(s.counters.at("node.locks_granted"), 1u);
  EXPECT_GE(s.counters.at("node.reads"), 1u);
  EXPECT_GE(s.histograms.at("op.lock.read_us").count, 1u);
  EXPECT_GE(s.histograms.at("op.read_us").count, 1u);

  const std::string json = world.metrics_json(1);
  EXPECT_TRUE(json_valid(json)) << json.substr(0, 400);
  EXPECT_NE(json.find("net.messages_sent"), std::string::npos);
  EXPECT_NE(world.metrics_text(1).find("node.locks_granted"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// End-to-end over real sockets: ids survive the TCP wire format.
// ---------------------------------------------------------------------------

TEST(TraceIntegration, TcpWorldTracePropagates) {
  core::TcpWorld world({.nodes = 2, .base_port = 30400});
  core::TcpClient home(world, 0);
  core::TcpClient client(world, 1);

  auto base = home.create_region(4096);
  ASSERT_TRUE(base.ok());
  const AddressRange page{base.value(), 4096};
  ASSERT_TRUE(home.put(page, Bytes(4096, 0xF2)).ok());
  auto data = client.get(page);
  ASSERT_TRUE(data.ok());

  // Client-side root op span, and a home-side rx span in the same trace.
  std::vector<Span> client_spans;
  world.transport(1).run_on_executor(
      [&] { client_spans = world.node(1).tracer().finished_spans(); });
  const auto lock_span =
      std::find_if(client_spans.begin(), client_spans.end(),
                   [](const Span& s) { return s.name == "op:lock"; });
  ASSERT_NE(lock_span, client_spans.end());
  const std::uint64_t trace = lock_span->trace_id;

  std::vector<Span> home_spans;
  world.transport(0).run_on_executor(
      [&] { home_spans = world.node(0).tracer().finished_spans(); });
  EXPECT_NE(std::find_if(home_spans.begin(), home_spans.end(),
                         [&](const Span& s) {
                           return s.trace_id == trace &&
                                  s.name.rfind("rx:", 0) == 0;
                         }),
            home_spans.end());

  EXPECT_TRUE(json_valid(world.trace_json()));
  const std::string metrics = world.metrics_json(1);
  EXPECT_TRUE(json_valid(metrics)) << metrics.substr(0, 400);
  EXPECT_NE(metrics.find("tcp.messages_sent"), std::string::npos);
}

}  // namespace
}  // namespace khz
