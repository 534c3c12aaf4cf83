// Per-layer counters read from outside the program at phase boundaries:
// each node's metric registry, each endpoint's TransportStats and its own
// tcp.* instruments, each node's storage hierarchy (read on the node's
// executor) and the size of the data directories. Histogram means are
// sum/count deltas, which are exact; log2 percentiles are never used.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/tcp_world.h"

namespace khzbench {

/// Metric name -> value, in name order.
using Metrics = std::map<std::string, double>;

struct Probe {
  std::vector<khz::obs::MetricsSnapshot> node;  // Node::metrics()
  std::vector<khz::obs::MetricsSnapshot> wire;  // TcpTransport::metrics()
  std::vector<khz::net::TransportStats> tstats;
  std::vector<khz::storage::HierarchyStats> hier;
  std::uint64_t disk_bytes = 0;
};

Probe take_probe(khz::core::TcpWorld& world,
                 const std::filesystem::path& data_root);

struct PhaseShape {
  double ops = 0;         // ops completed in the phase
  double user_bytes = 0;  // payload bytes the ops wrote
  double live_bytes = 0;  // payload bytes the corpus holds
};

/// The core (rpc), net, consistency, location and storage metrics of one
/// phase, from the deltas between `before` and `after`.
Metrics deep_layer_metrics(const Probe& before, const Probe& after,
                           const PhaseShape& shape);

/// Mean time per op that the deeper layers' own histograms recorded,
/// summed over nodes, for the self-time table: location (resolve.*_us),
/// consistency (crew.round_us) and net (tcp.send_queue_us). Storage has
/// no time histogram without fdatasync; its reads and writes fall in the
/// unattributed part.
std::vector<std::pair<std::string, double>> deep_layer_us_per_op(
    const Probe& before, const Probe& after, double ops);

}  // namespace khzbench
