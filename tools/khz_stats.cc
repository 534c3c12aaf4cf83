// khz_stats: scrape a live Khazana TCP deployment's telemetry.
//
// The tool joins the deployment's port arithmetic as one extra TcpBus
// endpoint (default node id 240, listening on base_port + 240), sends a
// kStatsReq to every node and renders the cluster: a top-like text table
// (counters and gauges per node plus the cluster total, histograms as the
// bucket-exact rollup) or, with --json, one machine-readable object on
// stdout (logs go to stderr, so stdout stays pure JSON for pipelines).
//
// No daemon-side support beyond the normal stats scrape path is needed:
// responses route back by the same base_port + id arithmetic the nodes use
// among themselves, and the scrape rides the protocol admission class, so
// it works exactly when it matters most — against an overloaded node.
//
// --demo spins up an in-process TcpWorld on --port, runs a small workload
// and then scrapes it through the real external path (used by the CI
// smoke).
#include <chrono>
#include <cinttypes>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/client.h"
#include "core/node.h"
#include "core/tcp_world.h"
#include "net/tcp_transport.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace {

using khz::Bytes;
using khz::Decoder;
using khz::Encoder;
using khz::ErrorCode;
using khz::Micros;
using khz::NodeId;

struct Options {
  std::uint16_t port = 39000;
  std::size_t nodes = 3;
  NodeId scraper_id = 240;
  Micros timeout_us = 2'000'000;
  bool json = false;
  bool dossiers = false;
  bool series = false;
  bool demo = false;
};

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--port P] [--nodes N] [--json] [--dossiers] [--series]\n"
      "          [--scraper-id ID] [--timeout-ms T] [--demo]\n"
      "\n"
      "Scrapes the Khazana deployment on 127.0.0.1 ports [P, P+N) and\n"
      "prints a cluster rollup. --json emits one JSON object on stdout;\n"
      "--dossiers / --series include the slow-op flight recorder and the\n"
      "self-sampled time series. --demo runs an in-process 3-node TCP\n"
      "deployment first and scrapes that.\n",
      argv0);
}

/// A non-Node endpoint on the deployment's TcpBus: sends kStatsReq frames
/// and correlates kStatsResp replies by rpc_id.
class Scraper {
 public:
  Scraper(std::uint16_t base_port, NodeId id)
      : bus_(base_port), ep_(bus_.add_node(id)) {
    ep_.set_handler([this](khz::net::Message m) {
      std::lock_guard lk(mu_);
      responses_[m.rpc_id] = std::move(m);
      cv_.notify_all();
    });
  }

  std::optional<khz::core::Node::RemoteStats> scrape(NodeId peer,
                                                     std::uint8_t flags,
                                                     Micros timeout_us) {
    const khz::RpcId rpc_id = next_rpc_id_++;
    khz::net::Message req;
    req.type = khz::net::MsgType::kStatsReq;
    req.dst = peer;
    req.rpc_id = rpc_id;
    Encoder e;
    e.u8(flags);
    req.payload = std::move(e).take();
    ep_.send(std::move(req));

    std::unique_lock lk(mu_);
    if (!cv_.wait_for(lk, std::chrono::microseconds(timeout_us),
                      [&] { return responses_.contains(rpc_id); })) {
      return std::nullopt;
    }
    khz::net::Message resp = std::move(responses_[rpc_id]);
    responses_.erase(rpc_id);
    lk.unlock();

    Decoder d(resp.payload);
    khz::core::Node::RemoteStats rs;
    if (khz::core::Node::decode_stats_payload(d, rs) != ErrorCode::kOk) {
      return std::nullopt;
    }
    return rs;
  }

 private:
  khz::net::TcpBus bus_;
  khz::net::TcpTransport& ep_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::map<khz::RpcId, khz::net::Message> responses_;
  khz::RpcId next_rpc_id_ = 1;
};

using Scraped = std::vector<std::pair<NodeId, khz::core::Node::RemoteStats>>;

void print_table(const Options& opts, const Scraped& nodes,
                 const khz::obs::MetricsSnapshot& cluster) {
  std::printf("khz_stats: %zu/%zu nodes @ 127.0.0.1:%u\n\n", nodes.size(),
              opts.nodes, opts.port);

  std::printf("%-40s %14s", "COUNTER", "total");
  for (const auto& [id, _] : nodes) std::printf(" %11s%u", "n", id);
  std::printf("\n");
  for (const auto& [name, total] : cluster.counters) {
    std::printf("%-40s %14" PRIu64, name.c_str(), total);
    for (const auto& [id, rs] : nodes) {
      const auto it = rs.snapshot.counters.find(name);
      std::printf(" %12" PRIu64,
                  it != rs.snapshot.counters.end() ? it->second : 0);
    }
    std::printf("\n");
  }

  if (!cluster.gauges.empty()) {
    std::printf("\n%-40s %14s", "GAUGE", "total");
    for (const auto& [id, _] : nodes) std::printf(" %11s%u", "n", id);
    std::printf("\n");
    for (const auto& [name, total] : cluster.gauges) {
      std::printf("%-40s %14" PRId64, name.c_str(), total);
      for (const auto& [id, rs] : nodes) {
        const auto it = rs.snapshot.gauges.find(name);
        std::printf(" %12" PRId64,
                    it != rs.snapshot.gauges.end() ? it->second : 0);
      }
      std::printf("\n");
    }
  }

  std::printf("\n%-40s %10s %10s %10s %10s %10s %10s\n", "HISTOGRAM (rollup)",
              "count", "mean", "p50", "p95", "p99", "max");
  for (const auto& [name, h] : cluster.histograms) {
    std::printf("%-40s %10" PRIu64 " %10.1f %10.0f %10.0f %10.0f %10" PRIu64
                "\n",
                name.c_str(), h.count, h.mean(), h.percentile(50),
                h.percentile(95), h.percentile(99), h.max);
  }

  if (opts.dossiers) {
    for (const auto& [id, rs] : nodes) {
      std::printf("\nnode %u slow-op dossiers (%zu, %" PRIu64 " dropped):\n",
                  id, rs.dossiers.size(), rs.dossiers_dropped);
      for (const auto& od : rs.dossiers) {
        std::printf("  %s\n", od.to_json().c_str());
      }
    }
  }
  if (opts.series) {
    for (const auto& [id, rs] : nodes) {
      std::printf("\nnode %u time series: %zu samples, %" PRIu64 " dropped\n",
                  id, rs.series.size(), rs.series_dropped);
    }
  }
}

void print_json(const Options& opts, const Scraped& nodes,
                const std::vector<khz::obs::NodeSnapshot>& snaps) {
  std::string out = "{\"port\":" + std::to_string(opts.port) +
                    ",\"scraped\":" + std::to_string(nodes.size()) + ',' +
                    khz::obs::rollup_json_members(snaps);
  bool first = true;
  if (opts.dossiers) {
    out += ",\"dossiers\":{";
    first = true;
    for (const auto& [id, rs] : nodes) {
      if (!first) out += ',';
      first = false;
      out += '"' + std::to_string(id) +
             "\":" + khz::obs::dossiers_json(rs.dossiers);
    }
    out += '}';
  }
  if (opts.series) {
    out += ",\"series\":{";
    first = true;
    for (const auto& [id, rs] : nodes) {
      if (!first) out += ',';
      first = false;
      out += '"' + std::to_string(id) + "\":[";
      bool s_first = true;
      for (const auto& s : rs.series) {
        if (!s_first) out += ',';
        s_first = false;
        out += "{\"at\":" + std::to_string(s.at) +
               ",\"delta\":" + s.delta.to_json() + '}';
      }
      out += ']';
    }
    out += '}';
  }
  out += "}\n";
  std::fputs(out.c_str(), stdout);
}

/// --demo: a small in-process deployment with enough traffic that every
/// section of the scrape has content (slow-op threshold of 1us makes every
/// op cut a dossier).
void run_demo_workload(khz::core::TcpWorld& world) {
  khz::core::TcpClient client(world, 1);
  khz::core::RegionAttrs attrs;
  auto base = client.reserve(4 * khz::kDefaultPageSize, attrs);
  if (!base.ok()) {
    std::fprintf(stderr, "khz_stats: demo reserve failed\n");
    return;
  }
  const khz::AddressRange range{base.value(), 4 * khz::kDefaultPageSize};
  if (!client.allocate(range).ok()) return;
  const Bytes payload(512, 0xA5);
  for (int i = 0; i < 4; ++i) {
    auto ctx = client.lock({range.base, 512}, khz::consistency::LockMode::kWrite);
    if (!ctx.ok()) continue;
    (void)client.write(ctx.value(), 0, payload);
    client.unlock(ctx.value());
    (void)client.getattr(base.value());
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--port") {
      opts.port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--nodes") {
      opts.nodes = static_cast<std::size_t>(std::atoi(next()));
    } else if (arg == "--scraper-id") {
      opts.scraper_id = static_cast<NodeId>(std::atoi(next()));
    } else if (arg == "--timeout-ms") {
      opts.timeout_us = static_cast<Micros>(std::atoll(next())) * 1000;
    } else if (arg == "--json") {
      opts.json = true;
    } else if (arg == "--dossiers") {
      opts.dossiers = true;
    } else if (arg == "--series") {
      opts.series = true;
    } else if (arg == "--demo") {
      opts.demo = true;
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (opts.scraper_id < opts.nodes) {
    std::fprintf(stderr,
                 "khz_stats: --scraper-id must be outside [0, nodes)\n");
    return 2;
  }

  std::unique_ptr<khz::core::TcpWorld> demo;
  if (opts.demo) {
    khz::core::TcpWorldOptions wopts;
    wopts.nodes = opts.nodes;
    wopts.base_port = opts.port;
    wopts.slow_op_threshold_us = 1;  // every op is "slow": dossiers flow
    wopts.stats_sample_interval = 20'000;
    demo = std::make_unique<khz::core::TcpWorld>(wopts);
    run_demo_workload(*demo);
    // Let a few self-sampler ticks land so --series has content.
    std::this_thread::sleep_for(std::chrono::milliseconds(80));
  }

  std::uint8_t flags = 0;
  if (opts.series) flags |= khz::core::Node::kScrapeSeries;
  if (opts.dossiers) flags |= khz::core::Node::kScrapeDossiers;

  Scraper scraper(opts.port, opts.scraper_id);
  Scraped nodes;
  std::vector<khz::obs::NodeSnapshot> snaps;
  for (std::size_t i = 0; i < opts.nodes; ++i) {
    const auto id = static_cast<NodeId>(i);
    auto rs = scraper.scrape(id, flags, opts.timeout_us);
    if (!rs.has_value()) {
      std::fprintf(stderr, "khz_stats: node %u did not answer\n", id);
      continue;
    }
    snaps.emplace_back(id, rs->snapshot);
    nodes.emplace_back(id, std::move(*rs));
  }
  if (nodes.empty()) {
    std::fprintf(stderr, "khz_stats: no node answered on 127.0.0.1:%u\n",
                 opts.port);
    return 1;
  }

  if (opts.json) {
    print_json(opts, nodes, snaps);
  } else {
    print_table(opts, nodes, khz::obs::rollup(snaps));
  }
  return 0;
}
