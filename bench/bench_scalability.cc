// GOAL-SCALE — Section 2, "Scalability": "Performance should scale as
// nodes are added if the new nodes do not contend for access to the same
// regions as existing nodes."
//
// Two workloads over N in {1,2,4,8,16,32}:
//   disjoint  — every node lock/write/unlocks its own region (the paper's
//               "do not contend" case): per-node throughput should stay
//               roughly flat as N grows.
//   contended — every node hammers ONE shared region under CREW: total
//               throughput is bounded by the serialized ownership hand-off,
//               so per-node throughput collapses as N grows.
#include "bench/bench_util.h"

namespace {

using namespace khz;        // NOLINT
using namespace khz::bench; // NOLINT
using core::SimWorld;
using consistency::LockMode;

struct Point {
  Micros round_time;  // virtual time for one round of N concurrent ops
  double msgs_per_op;
};

/// One op issued asynchronously: lock(write) -> write -> unlock.
void async_put(core::Node& node, const AddressRange& region,
               std::uint8_t value, int* outstanding) {
  node.lock(region, LockMode::kWrite,
            [&node, region, value,
             outstanding](Result<consistency::LockContext> ctx) {
              if (!ctx.ok()) std::abort();
              const Bytes data = fill(4096, value);
              if (!node.write(ctx.value(), 0, data).ok()) std::abort();
              node.unlock(ctx.value());
              --*outstanding;
            });
}

/// Runs `rounds` rounds; in each round all N nodes issue one write
/// CONCURRENTLY (the simulator interleaves their protocol traffic), then
/// the round barrier waits for every grant. Returns mean round time.
Point run(std::size_t nodes, int rounds, bool contended) {
  SimWorld world({.nodes = nodes});
  std::vector<AddressRange> regions;
  if (contended) {
    auto base = world.create_region(0, 4096);
    if (!base.ok()) std::abort();
    for (std::size_t n = 0; n < nodes; ++n) {
      regions.push_back({base.value(), 4096});
    }
    if (!world.put(0, regions[0], fill(4096, 1)).ok()) std::abort();
  } else {
    for (std::size_t n = 0; n < nodes; ++n) {
      auto base = world.create_region(static_cast<NodeId>(n), 4096);
      if (!base.ok()) std::abort();
      regions.push_back({base.value(), 4096});
      if (!world.put(static_cast<NodeId>(n), regions[n], fill(4096, 1))
               .ok()) {
        std::abort();
      }
    }
  }

  TrafficMeter meter(world);
  const Micros t0 = world.net().now();
  for (int round = 0; round < rounds; ++round) {
    int outstanding = static_cast<int>(nodes);
    for (std::size_t n = 0; n < nodes; ++n) {
      async_put(world.node(static_cast<NodeId>(n)), regions[n],
                static_cast<std::uint8_t>(round), &outstanding);
    }
    if (!world.pump_until([&] { return outstanding == 0; })) std::abort();
  }
  const Micros elapsed = std::max<Micros>(world.net().now() - t0, 1);
  const auto total_ops =
      static_cast<double>(rounds) * static_cast<double>(nodes);
  return {elapsed / rounds,
          static_cast<double>(meter.delta().messages) / total_ops};
}

}  // namespace

int main() {
  title("GOAL-SCALE | bench_scalability",
        "Per-node write throughput as nodes are added (LAN links).\n"
        "disjoint = each node its own region; contended = one shared region.");

  const int kRounds = 40;
  std::printf(
      "\nEach round: every node issues one 4 KiB write concurrently;\n"
      "round time = virtual time until all N grants complete.\n\n");
  table_header({"nodes", "disjoint round", "disj msgs/op",
                "contended round", "cont msgs/op"});
  for (std::size_t n : {1u, 2u, 4u, 8u, 16u, 32u}) {
    const auto d = run(n, kRounds, /*contended=*/false);
    const auto c = run(n, kRounds, /*contended=*/true);
    cell(static_cast<std::uint64_t>(n));
    cell(us(d.round_time));
    cell(d.msgs_per_op);
    cell(us(c.round_time));
    cell(c.msgs_per_op);
    endrow();
  }
  std::printf(
      "\nShape check vs paper: disjoint round time stays flat as nodes are\n"
      "added (all N writes proceed in parallel with ~0 msgs/op — the\n"
      "Section 2 scalability goal), while the contended round time grows\n"
      "~linearly with N: CREW serializes the writers through ownership\n"
      "hand-offs on the single shared region.\n");
  return 0;
}
