// Telemetry-plane tests: bucket-exact histogram and snapshot rollups, the
// kStatsResp wire format round-trips, the bounded time-series and flight-
// recorder rings, slow-op dossier capture in the simulator, scraping a
// remote node mid-overload, and the TcpWorld cluster rollup over real
// sockets.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/client.h"
#include "core/tcp_world.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace khz::core {
namespace {

// ---------------------------------------------------------------------------
// Rollup math: merge is bucket-exact, diff keeps gauge levels
// ---------------------------------------------------------------------------

TEST(HistogramMerge, BucketExactEqualsSingleRecorder) {
  // The rollup claim: merging two nodes' histograms bucket-by-bucket gives
  // exactly the histogram one node recording every sample would have.
  obs::Histogram a;
  obs::Histogram b;
  obs::Histogram all;
  for (const std::uint64_t v : {0ull, 1ull, 3ull, 100ull, 5000ull, 123456ull}) {
    a.record(v);
    all.record(v);
  }
  for (const std::uint64_t v : {7ull, 80ull, 9000ull, 1'000'000ull}) {
    b.record(v);
    all.record(v);
  }

  obs::HistogramSnapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  const obs::HistogramSnapshot expect = all.snapshot();
  EXPECT_EQ(merged.count, expect.count);
  EXPECT_EQ(merged.sum, expect.sum);
  EXPECT_EQ(merged.max, expect.max);
  EXPECT_EQ(merged.buckets, expect.buckets);
  EXPECT_DOUBLE_EQ(merged.percentile(50), expect.percentile(50));
  EXPECT_DOUBLE_EQ(merged.percentile(99), expect.percentile(99));
}

TEST(SnapshotMerge, CountersAndGaugesSumAcrossMissingNames) {
  obs::MetricsRegistry r1;
  obs::MetricsRegistry r2;
  r1.counter("x").inc(5);
  r1.counter("only1").inc(1);
  r1.gauge("g").set(4);
  r1.histogram("h").record(10);
  r2.counter("x").inc(7);
  r2.gauge("g").set(-2);
  r2.gauge("only2").set(3);
  r2.histogram("h").record(1000);

  obs::MetricsSnapshot s = r1.snapshot();
  s.merge(r2.snapshot());
  EXPECT_EQ(s.counters.at("x"), 12u);
  EXPECT_EQ(s.counters.at("only1"), 1u);
  EXPECT_EQ(s.gauges.at("g"), 2);  // levels sum for a cluster rollup
  EXPECT_EQ(s.gauges.at("only2"), 3);
  EXPECT_EQ(s.histograms.at("h").count, 2u);
  EXPECT_EQ(s.histograms.at("h").sum, 1010u);
}

TEST(SnapshotDiff, CountersSubtractGaugesKeepTheirLevel) {
  obs::MetricsRegistry r;
  r.counter("c").inc(10);
  r.gauge("depth").set(6);
  r.histogram("h").record(100);
  const obs::MetricsSnapshot before = r.snapshot();
  r.counter("c").inc(3);
  r.gauge("depth").sub(4);
  r.histogram("h").record(200);

  const obs::MetricsSnapshot d = r.snapshot().diff(before);
  EXPECT_EQ(d.counters.at("c"), 3u);
  // A gauge is a level, not an accumulator: the diff reports where the
  // needle points now, not how far it moved.
  EXPECT_EQ(d.gauges.at("depth"), 2);
  EXPECT_EQ(d.histograms.at("h").count, 1u);
  EXPECT_EQ(d.histograms.at("h").sum, 200u);
}

TEST(SnapshotDump, GaugesGetTheirOwnSections) {
  obs::MetricsRegistry r;
  r.counter("c").inc(1);
  r.gauge("depth").set(-5);
  const obs::MetricsSnapshot s = r.snapshot();
  EXPECT_NE(s.to_text().find("depth"), std::string::npos);
  const std::string json = s.to_json();
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"depth\":-5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// kStatsResp wire format round-trips
// ---------------------------------------------------------------------------

TEST(StatsWire, HistogramSnapshotRoundTrip) {
  obs::Histogram h;
  for (const std::uint64_t v : {0ull, 1ull, 900ull, 900ull, 77'000'000ull}) {
    h.record(v);
  }
  const obs::HistogramSnapshot in = h.snapshot();
  Encoder e;
  in.encode(e);
  const Bytes wire = std::move(e).take();
  Decoder d(wire);
  const obs::HistogramSnapshot out = obs::HistogramSnapshot::decode(d);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(out.count, in.count);
  EXPECT_EQ(out.sum, in.sum);
  EXPECT_EQ(out.max, in.max);
  EXPECT_EQ(out.buckets, in.buckets);  // sparse encoding loses nothing
}

TEST(StatsWire, MetricsSnapshotRoundTrip) {
  obs::MetricsRegistry r;
  r.counter("a.b").inc(42);
  r.counter("zero");  // zero-valued names survive the trip too
  r.gauge("g.neg").set(-17);
  r.histogram("h.us").record(1234);
  const obs::MetricsSnapshot in = r.snapshot();

  Encoder e;
  in.encode(e);
  const Bytes wire = std::move(e).take();
  Decoder d(wire);
  const obs::MetricsSnapshot out = obs::MetricsSnapshot::decode(d);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(out.counters, in.counters);
  EXPECT_EQ(out.gauges, in.gauges);
  ASSERT_EQ(out.histograms.size(), in.histograms.size());
  EXPECT_EQ(out.histograms.at("h.us").buckets, in.histograms.at("h.us").buckets);
}

TEST(StatsWire, OpDossierRoundTrip) {
  obs::OpDossier in;
  in.op = "getattr";
  in.node = 3;
  in.trace_id = 0xDEADBEEF;
  in.start = 100;
  in.end = 4100;
  in.deadline = 50'000;
  in.rpc_attempts = 5;
  in.rpc_steered = 1;
  in.depth_protocol = 2;
  in.depth_client = 63;
  in.depth_replication = 0;
  in.spans.push_back({0xDEADBEEF, 7, 0, 3, 100, 4100, "op:getattr"});
  in.spans.push_back({0xDEADBEEF, 8, 7, 3, 150, 4000, "rpc:GetAttrReq"});

  Encoder e;
  in.encode(e);
  const Bytes wire = std::move(e).take();
  Decoder d(wire);
  const obs::OpDossier out = obs::OpDossier::decode(d);
  EXPECT_TRUE(d.ok());
  EXPECT_EQ(out.op, in.op);
  EXPECT_EQ(out.node, in.node);
  EXPECT_EQ(out.trace_id, in.trace_id);
  EXPECT_EQ(out.deadline, in.deadline);
  EXPECT_EQ(out.rpc_attempts, in.rpc_attempts);
  EXPECT_EQ(out.depth_client, in.depth_client);
  ASSERT_EQ(out.spans.size(), 2u);
  EXPECT_EQ(out.spans[1].name, "rpc:GetAttrReq");
  EXPECT_EQ(out.spans[1].parent_id, 7u);
  // The JSON export carries the span tree and the queue depths.
  const std::string json = out.to_json();
  EXPECT_NE(json.find("\"spans\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_depths\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Bounded rings
// ---------------------------------------------------------------------------

TEST(Rings, TimeSeriesRingKeepsNewestAndCountsDrops) {
  obs::TimeSeriesRing ring(3);
  for (int i = 1; i <= 5; ++i) {
    obs::MetricsSample s;
    s.at = i * 100;
    ring.push(std::move(s));
  }
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.dropped(), 2u);
  const auto samples = ring.samples();  // oldest first
  ASSERT_EQ(samples.size(), 3u);
  EXPECT_EQ(samples.front().at, 300);
  EXPECT_EQ(samples.back().at, 500);
}

TEST(Rings, FlightRecorderKeepsNewestAndCountsDrops) {
  obs::FlightRecorder rec(2);
  for (int i = 1; i <= 5; ++i) {
    obs::OpDossier d;
    d.trace_id = static_cast<std::uint64_t>(i);
    rec.record(std::move(d));
  }
  EXPECT_EQ(rec.size(), 2u);
  EXPECT_EQ(rec.dropped(), 3u);
  const auto ds = rec.dossiers();
  ASSERT_EQ(ds.size(), 2u);
  EXPECT_EQ(ds.front().trace_id, 4u);
  EXPECT_EQ(ds.back().trace_id, 5u);
}

// ---------------------------------------------------------------------------
// Simulator: slow-op capture and the remote scrape path
// ---------------------------------------------------------------------------

TEST(TelemetrySim, SlowOpCutsDossierWithSpanTree) {
  // Threshold of 1us: every client op is "slow" and must cut a dossier.
  SimWorld world({.nodes = 2, .slow_op_threshold_us = 1});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.getattr(1, base.value()).ok());

  // Dossiers live on the node the op was issued on.
  auto& rec = world.node(1).flight_recorder();
  ASSERT_GE(rec.size(), 1u);
  const auto ds = rec.dossiers();
  const obs::OpDossier& d = ds.back();
  EXPECT_EQ(d.op, "getattr");
  EXPECT_EQ(d.node, 1u);
  EXPECT_NE(d.trace_id, 0u);
  EXPECT_GE(d.end, d.start);
  ASSERT_FALSE(d.spans.empty());  // the span tree came along
  bool has_root = false;
  for (const auto& s : d.spans) {
    EXPECT_EQ(s.trace_id, d.trace_id);
    if (s.parent_id == 0) has_root = true;
  }
  EXPECT_TRUE(has_root);
  EXPECT_GE(world.node(1).metrics().counter("node.slow_ops").value(), 1u);
  EXPECT_EQ(world.node(0).flight_recorder().size(), 0u);
}

TEST(TelemetrySim, DeadlineFractionTriggersWithoutAbsoluteThreshold) {
  // No absolute threshold; an op that burns >=50% of its deadline budget
  // is slow. A 1us budget makes that certain.
  SimWorld world({.nodes = 2, .slow_op_deadline_fraction = 0.5});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.getattr(1, base.value()).ok());  // no deadline: quiet
  EXPECT_EQ(world.node(1).flight_recorder().size(), 0u);

  Node& client = world.node(1);
  std::optional<bool> got;
  {
    RpcEngine::DeadlineScope scope(client.rpc_engine(), client.now() + 1);
    client.getattr(base.value(),
                   [&got](Result<RegionAttrs> r) { got = r.ok(); });
  }
  ASSERT_TRUE(
      world.pump_until([&] { return got.has_value(); }, 10'000'000));
  EXPECT_GE(client.flight_recorder().size(), 1u);
}

TEST(TelemetrySim, ScrapeRemoteNodeMidOverloadSeesQueueDepth) {
  // Node 1 parks a pile of getattrs in node 0's paced client queue; node 2
  // scrapes node 0 through the wire while that backlog is still queued.
  // The scrape rides the protocol class, so it is served ahead of the
  // stuck client work — that is the point of the design.
  SimWorld world({.nodes = 3,
                  .admission_client_queue = 16,
                  .admission_protocol_queue = 64,
                  .admission_service_us = 20'000});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());

  Node& client = world.node(1);
  int done = 0;
  for (int i = 0; i < 8; ++i) {
    client.getattr(base.value(), [&done](Result<RegionAttrs>) { ++done; });
  }
  auto rs = world.scrape(2, 0);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().node, 0u);
  EXPECT_GT(rs.value().at, 0);
  const auto& gauges = rs.value().snapshot.gauges;
  ASSERT_TRUE(gauges.contains("admission.depth.client"));
  EXPECT_GT(gauges.at("admission.depth.client"), 0)
      << "scrape should observe the backlog, not wait behind it";
  EXPECT_EQ(
      rs.value().snapshot.counters.at("telemetry.scrapes_served"), 1u);

  // Let the parked ops drain so the world shuts down clean.
  ASSERT_TRUE(world.pump_until([&] { return done == 8; }, 30'000'000));
}

TEST(TelemetrySim, SelfSamplerFillsTheSeriesRing) {
  SimWorld world({.nodes = 2,
                  .stats_sample_interval = 50'000,
                  .stats_series_capacity = 4});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.getattr(1, base.value()).ok());
  world.pump_for(400'000);  // 8 ticks into a 4-deep ring

  auto rs = world.scrape(1, 0, Node::kScrapeSeries);
  ASSERT_TRUE(rs.ok());
  EXPECT_EQ(rs.value().series.size(), 4u);
  EXPECT_GT(rs.value().series_dropped, 0u);  // ring wrapped, drop-counted
  // Samples are deltas in virtual-time order.
  Micros prev = 0;
  for (const auto& s : rs.value().series) {
    EXPECT_GT(s.at, prev);
    prev = s.at;
  }
  EXPECT_GE(world.node(0).metrics().counter("telemetry.samples").value(),
            8u);
}

// ---------------------------------------------------------------------------
// TcpWorld: the rollup over real sockets ("Tcp" in the name for the TSan
// suite filter)
// ---------------------------------------------------------------------------

TEST(TelemetryTcp, ClusterRollupEqualsPerNodeSums) {
  TcpWorld world({.nodes = 2, .base_port = 30420});
  TcpClient client(world, 1);
  auto base = client.reserve(4096, {});
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(client.allocate({base.value(), 4096}).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.getattr(base.value()).ok());

  // Scrape both nodes over the wire via node 0 and roll up.
  std::vector<Node::RemoteStats> per_node;
  obs::MetricsSnapshot cluster;
  for (NodeId id = 0; id < 2; ++id) {
    auto rs = world.scrape(0, id);
    ASSERT_TRUE(rs.ok()) << "scrape of node " << int(id) << " failed";
    cluster.merge(rs.value().snapshot);
    per_node.push_back(std::move(rs.value()));
  }

  // Every cluster counter equals the sum of the per-node values, and
  // histogram rollups carry the exact sample counts.
  for (const auto& [name, total] : cluster.counters) {
    std::uint64_t sum = 0;
    for (const auto& rs : per_node) {
      const auto it = rs.snapshot.counters.find(name);
      if (it != rs.snapshot.counters.end()) sum += it->second;
    }
    EXPECT_EQ(total, sum) << "counter " << name;
  }
  for (const auto& [name, h] : cluster.histograms) {
    std::uint64_t count = 0;
    for (const auto& rs : per_node) {
      const auto it = rs.snapshot.histograms.find(name);
      if (it != rs.snapshot.histograms.end()) count += it->second.count;
    }
    EXPECT_EQ(h.count, count) << "histogram " << name;
  }
  EXPECT_EQ(cluster.counters.at("telemetry.scrapes_served"), 2u);

  // The one-call JSON export exposes the same shape.
  const std::string json = world.cluster_metrics_json();
  EXPECT_NE(json.find("\"cluster\":"), std::string::npos);
  EXPECT_NE(json.find("\"nodes\":"), std::string::npos);
}

}  // namespace
}  // namespace khz::core
