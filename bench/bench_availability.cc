// GOAL-AVAIL — Section 3.5, "Failure handling": minimum primary replicas
// and the acquire/release error asymmetry.
//
// Part 1: regions created with min_replicas r in {1,2,3}; k random holders
// are crashed; report the fraction of 20 regions still readable and the
// mean access latency of the survivors (failure detection adds retries).
//
// Part 2: the asymmetry itself — an acquire-type op (lock) against a dead
// home fails back to the client after retries, while a release-type op
// (unreserve) is accepted immediately and retried in the background until
// the home returns.
//
// Part 3: write availability across a home crash (docs/recovery.md). With
// min_replicas >= 2 a surviving replica promotes itself to home once the
// failure detector fires; we measure the window between the crash and the
// first client write that completes again.
#include "bench/bench_util.h"

namespace {

using namespace khz;        // NOLINT
using namespace khz::bench; // NOLINT
using core::RegionAttrs;
using core::SimWorld;
using consistency::LockMode;

struct AvailPoint {
  double available_fraction;
  Micros mean_latency;
};

AvailPoint run(std::uint32_t min_replicas, int kill_count) {
  SimWorld world({.nodes = 6, .rpc_timeout = 50'000});
  RegionAttrs attrs;
  attrs.min_replicas = min_replicas;

  const int kRegions = 20;
  std::vector<AddressRange> regions;
  for (int i = 0; i < kRegions; ++i) {
    const NodeId home = static_cast<NodeId>(1 + i % 5);  // spread homes
    auto base = world.create_region(home, 4096, attrs);
    if (!base.ok()) std::abort();
    regions.push_back({base.value(), 4096});
    if (!world.put(home, regions.back(),
                   fill(4096, static_cast<std::uint8_t>(i + 1)))
             .ok()) {
      std::abort();
    }
  }
  world.pump_for(3'000'000);  // replica maintenance settles

  // Crash k nodes (never node 0: it reads, and hosts the map).
  for (int k = 0; k < kill_count; ++k) {
    world.net().set_node_up(static_cast<NodeId>(1 + k), false);
  }

  int readable = 0;
  Micros latency = 0;
  for (int i = 0; i < kRegions; ++i) {
    const Micros t0 = world.net().now();
    auto r = world.get(0, regions[static_cast<std::size_t>(i)]);
    if (r.ok() && r.value()[0] == static_cast<std::uint8_t>(i + 1)) {
      ++readable;
      latency += world.net().now() - t0;
    }
  }
  return {static_cast<double>(readable) / kRegions,
          readable > 0 ? latency / readable : 0};
}

// Crashes the home of a freshly written region and measures how long
// writes stay unavailable before fail-over restores them. Returns the
// window in virtual microseconds, or -1 if writes never came back (the
// expected outcome for min_replicas = 1: no surviving copy, no heir).
std::int64_t write_unavailability_window(std::uint32_t min_replicas) {
  SimWorld world({.nodes = 4, .rpc_timeout = 50'000,
                  .ping_interval = 50'000});
  RegionAttrs attrs;
  attrs.min_replicas = min_replicas;
  auto base = world.create_region(1, 4096, attrs);
  if (!base.ok()) std::abort();
  const AddressRange range{base.value(), 4096};
  if (!world.put(1, range, fill(4096, 0x5A)).ok()) std::abort();
  world.pump_for(2'000'000);  // replica maintenance settles

  world.crash_node(1);
  const Micros crashed_at = world.net().now();

  // A writer on an uninvolved node hammers the region; each failed
  // attempt burns its retries in virtual time, and the pings that drive
  // failure detection (and then promotion) flow underneath. First success
  // closes the window.
  for (int attempt = 0; attempt < 40; ++attempt) {
    if (world.put(3, range, fill(4096, 0xA5)).ok()) {
      return static_cast<std::int64_t>(world.net().now() - crashed_at);
    }
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReport json("availability", argc, argv);
  title("GOAL-AVAIL | bench_availability",
        "Availability vs replication factor under node crashes\n"
        "(Section 3.5), plus acquire/release error semantics and the\n"
        "write-unavailability window across home fail-over.");

  std::printf("\n20 regions spread over 5 homes; k nodes crashed:\n\n");
  table_header({"min_replicas", "crashed", "available", "mean latency"});
  for (std::uint32_t r : {1u, 2u, 3u}) {
    for (int k : {0, 1, 2}) {
      const auto p = run(r, k);
      cell(static_cast<std::uint64_t>(r));
      cell(static_cast<std::uint64_t>(k));
      char pct[16];
      std::snprintf(pct, sizeof(pct), "%.0f%%", p.available_fraction * 100);
      cell(std::string(pct));
      cell(us(p.mean_latency));
      endrow();
      json.metric("read_avail_r" + std::to_string(r) + "_k" +
                      std::to_string(k),
                  p.available_fraction);
    }
  }

  std::printf("\nAcquire vs release error semantics (dead home):\n\n");
  {
    SimWorld world({.nodes = 3, .rpc_timeout = 50'000});
    auto base = world.create_region(1, 4096);
    if (!base.ok()) return 1;
    (void)world.get(2, {base.value(), 4096});
    world.net().set_node_up(1, false);

    // Acquire-type: reflected to the client after retries.
    Micros t0 = world.net().now();
    world.node(2).page_info(base.value()).state =
        storage::PageState::kInvalid;
    world.node(2).storage().erase(base.value());
    auto ctx = world.lock(2, {base.value(), 4096}, LockMode::kRead);
    std::printf("  lock (acquire) on dead home: %s after %s of retries\n",
                ctx.ok() ? "GRANTED?!"
                         : std::string(to_string(ctx.error())).c_str(),
                us(world.net().now() - t0).c_str());

    // Release-type: accepted now, retried in the background.
    t0 = world.net().now();
    auto s = world.unreserve(2, base.value());
    std::printf(
        "  unreserve (release) on dead home: accepted=%s in %s; "
        "background queue depth=%zu\n",
        s.ok() ? "yes" : "no", us(world.net().now() - t0).c_str(),
        world.node(2).background_queue_depth());
    world.net().set_node_up(1, true);
    world.pump_for(2'000'000);
    std::printf(
        "  after the home recovers: background queue depth=%zu "
        "(retries=%llu)\n",
        world.node(2).background_queue_depth(),
        static_cast<unsigned long long>(
            world.node(2)
                .metrics()
                .counter("node.background_retries")
                .value()));
  }

  std::printf(
      "\nWrite-unavailability window after the home crashes\n"
      "(4 nodes, rpc_timeout 50 ms, ping interval 50 ms; a third node\n"
      "retries a write until it completes):\n\n");
  table_header({"min_replicas", "write outage"});
  for (std::uint32_t r : {1u, 2u, 3u}) {
    const std::int64_t window = write_unavailability_window(r);
    cell(static_cast<std::uint64_t>(r));
    cell(window < 0 ? std::string("permanent (no surviving copy)")
                    : us(static_cast<Micros>(window)));
    endrow();
    json.metric("write_unavail_us_r" + std::to_string(r),
                static_cast<double>(window));
  }

  std::printf(
      "\nShape check vs paper: min_replicas=1 loses exactly the regions\n"
      "whose home died; with replication everything stays readable — and\n"
      "reads get FASTER, because the maintenance machinery pushed a copy\n"
      "onto the reading node (caching near use, Section 2). Acquire errors\n"
      "reach the client; release errors never do — Khazana retries them in\n"
      "the background until they succeed. With min_replicas >= 2 a home\n"
      "crash costs writers only the failure-detection window plus one\n"
      "promotion: the highest-id surviving copy-set member re-homes the\n"
      "region and writes resume without operator intervention.\n");
  return 0;
}
