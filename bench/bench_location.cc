// GOAL-LOC — Section 3.2, "Locating Khazana Regions", at churn scale.
//
// A 256-node simulated cluster (configurable with `--nodes N`, up to 1024)
// with 4 cluster managers runs a scripted churn storm: the three backup
// managers crash long enough for the failure detector to convict them —
// their volatile hint caches die with them — then reboot, and a brief
// partition splits the cluster in half. After the storm, cold readers
// resolve a 64-region working set and we record where each resolve was
// answered (hit class) and its virtual-time latency.
//
// The experiment runs twice: hint anti-entropy OFF (a rebooted manager's
// cache refills only via future publications, so cold lookups steered at
// it fall through to the level-3 address-map walk) and ON (managers exchange signed hint digests on the
// timer rail and merge newest-wins, so rebooted managers recover the hint
// set from the survivors). The delta in post-churn map walks is the
// paper's argument for keeping the hint tier convergent.
//
// `--json` writes BENCH_location.json with resolve p50/p99 and per-hit-
// class counts for both modes; CI asserts ae_on map walks < ae_off.
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <set>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"

namespace {

using namespace khz;        // NOLINT
using namespace khz::bench; // NOLINT
using core::SimWorld;
using core::SimWorldOptions;

constexpr std::size_t kManagers = 4;
constexpr std::size_t kRegions = 64;
constexpr std::size_t kReaders = 96;

/// Cluster-wide sum of one location counter across live nodes.
std::uint64_t sum_counter(SimWorld& world, const char* name) {
  std::uint64_t total = 0;
  for (NodeId n = 0; n < world.size(); ++n) {
    if (!world.node_alive(n)) continue;
    total += world.node(n).metrics().counter(name).value();
  }
  return total;
}

struct HitCounts {
  std::uint64_t resolves = 0;
  std::uint64_t home = 0;
  std::uint64_t region_dir = 0;
  std::uint64_t manager = 0;
  std::uint64_t map_walk = 0;
  std::uint64_t cluster_walk = 0;
  std::uint64_t failures = 0;

  static HitCounts snap(SimWorld& w) {
    return {sum_counter(w, "location.resolves"),
            sum_counter(w, "location.hits.home"),
            sum_counter(w, "location.hits.region_dir"),
            sum_counter(w, "location.hits.manager"),
            sum_counter(w, "location.hits.map_walk"),
            sum_counter(w, "location.hits.cluster_walk"),
            sum_counter(w, "location.failures")};
  }
  [[nodiscard]] HitCounts minus(const HitCounts& o) const {
    return {resolves - o.resolves,     home - o.home,
            region_dir - o.region_dir, manager - o.manager,
            map_walk - o.map_walk,     cluster_walk - o.cluster_walk,
            failures - o.failures};
  }
  [[nodiscard]] std::uint64_t classed() const {
    return home + region_dir + manager + map_walk + cluster_walk + failures;
  }
};

struct ChurnResult {
  HitCounts hits;
  Micros p50 = 0;
  Micros p99 = 0;
  std::uint64_t sync_rounds = 0;
  std::uint64_t sync_merged = 0;
  std::uint64_t retractions = 0;
};

/// One resolve on `reader`, pumped to completion; returns the
/// virtual-time latency. Post-churn, with the address map intact, every
/// lookup must succeed — a failure aborts the bench.
Micros resolve_once(SimWorld& world, NodeId reader, const GlobalAddress& a) {
  bool done = false;
  bool ok = false;
  const Micros t0 = world.net().now();
  Micros t1 = t0;
  world.node(reader).resolver().resolve(
      a, [&](Result<core::RegionDescriptor> r) {
        done = true;
        ok = r.ok();
        t1 = world.net().now();
      });
  if (!world.pump_until([&] { return done; })) std::abort();
  if (!ok) std::abort();
  return t1 - t0;
}

Micros percentile(std::vector<Micros> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

ChurnResult run_churn(std::size_t nodes, bool anti_entropy) {
  SimWorldOptions opts;
  opts.nodes = nodes;
  opts.managers = kManagers;
  opts.link = net::LinkProfile::lan();
  opts.ping_interval = 300'000;  // detector on: verdicts retract hints
  opts.hint_sync_interval = anti_entropy ? 250'000 : 0;
  opts.free_space_ttl = 10'000'000;
  opts.seed = 7;
  SimWorld world(opts);

  // Working set: one small region homed on each of kRegions distinct nodes
  // just above the manager block. Reserving on the home publishes a hint
  // to every manager, so all four start with the full hint set.
  std::vector<GlobalAddress> regions;
  for (std::size_t i = 0; i < kRegions; ++i) {
    const auto home = static_cast<NodeId>(kManagers + i);
    auto base = world.create_region(home, 4096);
    if (!base.ok()) std::abort();
    regions.push_back(base.value());
  }
  world.pump_for(500'000);  // publications land everywhere

  // Churn storm on the global timer rail: backup managers 1..3 crash for
  // ~1.6 s (>= 3 missed pings — the detector convicts them), reboot with
  // empty hint caches, and a half/half partition opens for 400 ms.
  for (std::size_t k = 1; k < kManagers; ++k) {
    world.schedule_crash(1'000'000 + k * 200'000, static_cast<NodeId>(k));
    world.schedule_restart(2'600'000 + k * 200'000, static_cast<NodeId>(k));
  }
  std::set<NodeId> lower, upper;
  for (NodeId n = 0; n < world.size(); ++n) {
    (n < world.size() / 2 ? lower : upper).insert(n);
  }
  world.schedule_partition(3'500'000, lower, upper);
  world.schedule_heal(3'900'000);
  // Settle: detectors re-admit the rebooted managers; with anti-entropy on
  // the sync rounds rebuild their hint caches from the survivors.
  world.pump_for(5'500'000);

  // Post-churn measurement: cold readers resolve random regions. A
  // reader's first lookup misses its empty region directory and goes to
  // its rotation manager — a rebooted one for ~3/4 of readers — and a
  // repeated lookup exercises the warmed directory.
  Rng rng(99);
  const HitCounts before = HitCounts::snap(world);
  std::vector<Micros> lat;
  const auto first_reader = static_cast<NodeId>(kManagers + kRegions);
  const std::size_t reader_span = world.size() - first_reader;
  for (std::size_t i = 0; i < kReaders; ++i) {
    const auto reader =
        static_cast<NodeId>(first_reader + i % reader_span);
    const GlobalAddress a = regions[rng.below(regions.size())];
    const GlobalAddress b = regions[rng.below(regions.size())];
    lat.push_back(resolve_once(world, reader, a));
    lat.push_back(resolve_once(world, reader, b));
    lat.push_back(resolve_once(world, reader, a));  // directory hit
  }

  ChurnResult r;
  r.hits = HitCounts::snap(world).minus(before);
  // Terminal attribution: every resolve lands in exactly one hit class
  // (the churn property test asserts the same invariant).
  if (r.hits.classed() != r.hits.resolves) std::abort();
  if (r.hits.failures != 0) std::abort();
  r.p50 = percentile(lat, 0.50);
  r.p99 = percentile(lat, 0.99);
  r.sync_rounds = sum_counter(world, "location.hint_sync.rounds");
  r.sync_merged = sum_counter(world, "location.hint_sync.merged");
  r.retractions = sum_counter(world, "location.retractions");
  return r;
}

void report_mode(const char* name, const ChurnResult& r) {
  cell(std::string(name));
  cell(r.hits.resolves);
  cell(r.hits.home);
  cell(r.hits.region_dir);
  cell(r.hits.manager);
  cell(r.hits.map_walk);
  cell(r.hits.cluster_walk);
  cell(us(r.p50));
  cell(us(r.p99));
  endrow();
}

void emit_json(bench::JsonReport& json, const std::string& p,
               const ChurnResult& r) {
  json.metric(p + ".resolves", static_cast<double>(r.hits.resolves));
  json.metric(p + ".hits.home", static_cast<double>(r.hits.home));
  json.metric(p + ".hits.region_dir", static_cast<double>(r.hits.region_dir));
  json.metric(p + ".hits.manager", static_cast<double>(r.hits.manager));
  json.metric(p + ".hits.map_walk", static_cast<double>(r.hits.map_walk));
  json.metric(p + ".hits.cluster_walk",
              static_cast<double>(r.hits.cluster_walk));
  json.metric(p + ".failures", static_cast<double>(r.hits.failures));
  json.metric(p + ".resolve_p50_us", static_cast<double>(r.p50));
  json.metric(p + ".resolve_p99_us", static_cast<double>(r.p99));
  json.metric(p + ".hint_sync_rounds", static_cast<double>(r.sync_rounds));
  json.metric(p + ".hint_sync_merged", static_cast<double>(r.sync_merged));
  json.metric(p + ".retractions", static_cast<double>(r.retractions));
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t nodes = 256;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0) {
      nodes = static_cast<std::size_t>(std::atoll(argv[i + 1]));
    }
  }
  nodes = std::clamp<std::size_t>(nodes, kManagers + kRegions + 8, 1024);

  title("GOAL-LOC | bench_location",
        "Churn-scale resolution (Section 3.2): a manager crash/reboot storm\n"
        "plus a transient partition, then cold readers resolve a 64-region\n"
        "working set — with hint anti-entropy off vs on.");
  std::printf("%zu nodes, %zu managers, %zu regions, %zu readers x 3 "
              "resolves\n\n",
              nodes, kManagers, kRegions, kReaders);
  table_header({"mode", "resolves", "home", "dir", "mgr", "map", "walk",
                "p50", "p99"});

  const ChurnResult off = run_churn(nodes, /*anti_entropy=*/false);
  report_mode("anti-entropy off", off);
  const ChurnResult on = run_churn(nodes, /*anti_entropy=*/true);
  report_mode("anti-entropy on", on);

  std::printf("\npost-churn level-3 map walks: %llu (off) -> %llu (on); "
              "%llu hint records merged over %llu sync rounds, %llu "
              "detector retractions\n",
              static_cast<unsigned long long>(off.hits.map_walk),
              static_cast<unsigned long long>(on.hits.map_walk),
              static_cast<unsigned long long>(on.sync_merged),
              static_cast<unsigned long long>(on.sync_rounds),
              static_cast<unsigned long long>(on.retractions));

  bench::JsonReport json("location", argc, argv);
  if (json.enabled()) {
    json.meta("nodes", std::to_string(nodes));
    json.meta("managers", std::to_string(kManagers));
    json.meta("regions", std::to_string(kRegions));
    json.meta("readers", std::to_string(kReaders));
    emit_json(json, "ae_off", off);
    emit_json(json, "ae_on", on);
    json.finish();
  }
  return 0;
}
