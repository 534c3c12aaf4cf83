#include "layers.h"

namespace khzbench {
namespace {

using khz::obs::MetricsSnapshot;

/// Client nodes: where the workers' ops enter (see client_node()).
constexpr khz::NodeId kFirstClientNode = 1;

std::uint64_t counter(const MetricsSnapshot& s, const std::string& name) {
  const auto it = s.counters.find(name);
  return it == s.counters.end() ? 0 : it->second;
}

struct HistDelta {
  double count = 0;
  double sum = 0;
  [[nodiscard]] double mean() const { return count == 0 ? 0 : sum / count; }
};

HistDelta hist(const MetricsSnapshot& a, const MetricsSnapshot& b,
               const std::string& name) {
  const auto ib = b.histograms.find(name);
  if (ib == b.histograms.end()) return {};
  const auto ia = a.histograms.find(name);
  double c = static_cast<double>(ib->second.count);
  double s = static_cast<double>(ib->second.sum);
  if (ia != a.histograms.end()) {
    c -= static_cast<double>(ia->second.count);
    s -= static_cast<double>(ia->second.sum);
  }
  return {c, s};
}

/// Sum over nodes of a registry counter's delta.
double counter_delta(const Probe& a, const Probe& b, const std::string& name) {
  double d = 0;
  for (std::size_t i = 0; i < b.node.size(); ++i) {
    d += static_cast<double>(counter(b.node[i], name)) -
         static_cast<double>(counter(a.node[i], name));
  }
  return d;
}

HistDelta node_hist(const Probe& a, const Probe& b, const std::string& name) {
  HistDelta t;
  for (std::size_t i = 0; i < b.node.size(); ++i) {
    const HistDelta h = hist(a.node[i], b.node[i], name);
    t.count += h.count;
    t.sum += h.sum;
  }
  return t;
}

HistDelta wire_hist(const Probe& a, const Probe& b, const std::string& name) {
  HistDelta t;
  for (std::size_t i = 0; i < b.wire.size(); ++i) {
    const HistDelta h = hist(a.wire[i], b.wire[i], name);
    t.count += h.count;
    t.sum += h.sum;
  }
  return t;
}

double per(double x, double base) { return base == 0 ? 0 : x / base; }

/// Bytes of every regular file under `root` (0 when it does not exist).
std::uint64_t tree_bytes(const std::filesystem::path& root) {
  namespace fs = std::filesystem;
  std::error_code ec;
  if (root.empty() || !fs::exists(root, ec)) return 0;
  std::uint64_t n = 0;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    std::error_code fec;
    if (it->is_regular_file(fec)) {
      const auto sz = it->file_size(fec);
      if (!fec) n += sz;
    }
  }
  return n;
}

}  // namespace

Probe take_probe(khz::core::TcpWorld& world,
                 const std::filesystem::path& data_root) {
  Probe p;
  for (std::size_t i = 0; i < world.size(); ++i) {
    const auto id = static_cast<khz::NodeId>(i);
    p.node.push_back(world.node(id).metrics().snapshot());
    p.wire.push_back(world.transport(id).metrics().snapshot());
    p.tstats.push_back(world.transport_stats(id));
    khz::storage::HierarchyStats h;
    // The hierarchy is single-writer state of the node's executor.
    world.transport(id).run_on_executor(
        [&] { h = world.node(id).storage().stats(); });
    p.hier.push_back(h);
  }
  p.disk_bytes = tree_bytes(data_root);
  return p;
}

Metrics deep_layer_metrics(const Probe& a, const Probe& b,
                           const PhaseShape& shape) {
  Metrics m;
  const double ops = shape.ops;

  // core: RPC substrate.
  m["core.rpc_attempts_per_op"] = per(counter_delta(a, b, "rpc.attempts"), ops);
  m["core.rpc_steered_per_op"] = per(counter_delta(a, b, "rpc.steered"), ops);
  m["core.deadline_expired"] =
      counter_delta(a, b, "rpc.deadline_expired.client") +
      counter_delta(a, b, "rpc.deadline_expired.server");

  // net: wire counters (deltas) and failure totals (whole run).
  double msgs = 0, bytes = 0, connect_failures = 0, dropped = 0;
  for (std::size_t i = 0; i < b.tstats.size(); ++i) {
    msgs += static_cast<double>(b.tstats[i].messages_sent -
                                a.tstats[i].messages_sent);
    bytes += static_cast<double>(b.tstats[i].bytes_sent -
                                 a.tstats[i].bytes_sent);
    connect_failures += static_cast<double>(b.tstats[i].connect_failures);
    dropped += static_cast<double>(b.tstats[i].frames_dropped);
  }
  m["net.msgs_per_op"] = per(msgs, ops);
  m["net.bytes_per_op"] = per(bytes, ops);
  m["net.send_queue_us_mean"] = wire_hist(a, b, "tcp.send_queue_us").mean();
  m["net.writev_frames_mean"] = wire_hist(a, b, "tcp.writev_frames").mean();
  m["net.connect_failures"] = connect_failures;
  m["net.frames_dropped"] = dropped;

  // consistency: CREW rounds at the home.
  const HistDelta crew = node_hist(a, b, "crew.round_us");
  m["crew.rounds_per_op"] = per(crew.count, ops);
  m["crew.round_us_mean"] = crew.mean();

  // location fabric.
  m["location.resolves_per_op"] =
      per(counter_delta(a, b, "location.resolves"), ops);
  m["location.region_dir_hits_per_op"] =
      per(counter_delta(a, b, "location.hits.region_dir"), ops);
  m["location.manager_hits_per_op"] =
      per(counter_delta(a, b, "location.hits.manager"), ops);
  m["location.map_walks_per_op"] =
      per(counter_delta(a, b, "location.hits.map_walk"), ops);
  m["location.region_dir_evictions_per_op"] =
      per(counter_delta(a, b, "region_dir.evictions"), ops);
  m["location.manager_hint_us_mean"] =
      node_hist(a, b, "resolve.manager_hint_us").mean();
  m["location.failures"] = counter_delta(a, b, "location.failures");

  // storage: hierarchy (client nodes for hit accounting), commits, space.
  double ram = 0, disk = 0, miss = 0, ram_to_disk = 0;
  for (std::size_t i = 0; i < b.hier.size(); ++i) {
    ram_to_disk +=
        static_cast<double>(b.hier[i].ram_to_disk - a.hier[i].ram_to_disk);
    if (i < kFirstClientNode) continue;
    ram += static_cast<double>(b.hier[i].ram_hits - a.hier[i].ram_hits);
    disk += static_cast<double>(b.hier[i].disk_hits - a.hier[i].disk_hits);
    miss += static_cast<double>(b.hier[i].misses - a.hier[i].misses);
  }
  m["storage.ram_hit_ratio"] = per(ram, ram + disk + miss);
  m["storage.disk_hits_per_op"] = per(disk, ops);
  m["storage.ram_to_disk_per_op"] = per(ram_to_disk, ops);
  // One storage.group_commit_pages sample per commit that wrote pages.
  const HistDelta commits = node_hist(a, b, "storage.group_commit_pages");
  m["storage.commits_per_op"] = per(commits.count, ops);
  m["storage.group_commit_pages_mean"] = commits.mean();
  m["storage.bytes_written_per_user_byte"] =
      per(static_cast<double>(b.disk_bytes) - static_cast<double>(a.disk_bytes),
          shape.user_bytes);
  m["storage.disk_bytes_per_live_byte"] =
      per(static_cast<double>(b.disk_bytes), shape.live_bytes);
  return m;
}

std::vector<std::pair<std::string, double>> deep_layer_us_per_op(
    const Probe& a, const Probe& b, double ops) {
  const double resolve = node_hist(a, b, "resolve.region_dir_us").sum +
                         node_hist(a, b, "resolve.manager_hint_us").sum +
                         node_hist(a, b, "resolve.map_walk_us").sum +
                         node_hist(a, b, "resolve.cluster_walk_us").sum;
  return {
      {"location (resolve.*_us)", per(resolve, ops)},
      {"consistency (crew.round_us)",
       per(node_hist(a, b, "crew.round_us").sum, ops)},
      {"net (tcp.send_queue_us)",
       per(wire_hist(a, b, "tcp.send_queue_us").sum, ops)},
  };
}

}  // namespace khzbench
