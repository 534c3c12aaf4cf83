// APP-KFS — Section 4.1: the wide-area distributed filesystem.
//
// Measures the filesystem operations the paper's design section walks
// through: create (inode + directory entry), open (recursive descent),
// sequential write/read throughput, cold-vs-warm remote reads, and the
// effect of replicating a hot file. All distribution comes from Khazana;
// the filesystem code is identical on every node.
#include "bench/bench_util.h"
#include "kfs/fs.h"

namespace {

using namespace khz;        // NOLINT
using namespace khz::bench; // NOLINT
using core::SimClient;
using core::SimWorld;

}  // namespace

int main() {
  title("APP-KFS | bench_kfs",
        "Filesystem operation costs over Khazana (Section 4.1);\n"
        "5-node LAN, one filesystem mounted everywhere.");

  SimWorld world({.nodes = 5});
  std::vector<SimClient> clients;
  for (NodeId n = 0; n < 5; ++n) clients.emplace_back(world, n);

  auto super = kfs::FileSystem::mkfs(clients[0]);
  if (!super.ok()) return 1;
  std::vector<kfs::FileSystem> mounts;
  for (NodeId n = 0; n < 5; ++n) {
    auto fs = kfs::FileSystem::mount(clients[n], super.value());
    if (!fs.ok()) return 1;
    mounts.push_back(std::move(fs.value()));
  }

  std::printf(
      "\nNamespace operations from node 2 (fs metadata homed on node 0):\n"
      "cold = first touch (remote fetches), warm = repeated\n\n");
  table_header({"operation", "latency", "messages"});
  {
    TrafficMeter meter(world);
    Micros t0 = world.net().now();
    if (!mounts[2].mkdir("/bench").ok()) return 1;
    cell(std::string("mkdir (cold)")); cell(us(world.net().now() - t0));
    cell(meter.delta().messages); endrow();

    meter.reset();
    t0 = world.net().now();
    auto fh = mounts[2].create("/bench/file0");
    if (!fh.ok()) return 1;
    cell(std::string("create")); cell(us(world.net().now() - t0));
    cell(meter.delta().messages); endrow();

    meter.reset();
    t0 = world.net().now();
    if (!mounts[2].open("/bench/file0").ok()) return 1;
    cell(std::string("open (cold)")); cell(us(world.net().now() - t0));
    cell(meter.delta().messages); endrow();

    meter.reset();
    t0 = world.net().now();
    if (!mounts[2].open("/bench/file0").ok()) return 1;
    cell(std::string("open (warm)")); cell(us(world.net().now() - t0));
    cell(meter.delta().messages); endrow();

    meter.reset();
    t0 = world.net().now();
    if (!mounts[2].stat("/bench/file0").ok()) return 1;
    cell(std::string("stat (warm)")); cell(us(world.net().now() - t0));
    cell(meter.delta().messages); endrow();
  }

  std::printf("\nSequential I/O, 256 KiB file (64 blocks):\n\n");
  table_header({"operation", "throughput", "msgs/KiB"});
  {
    auto fh = mounts[0].create("/bench/big");
    if (!fh.ok()) return 1;
    const std::size_t kSize = 256 * 1024;
    const Bytes data = fill(kSize, 0xD7);

    TrafficMeter meter(world);
    Micros t0 = world.net().now();
    if (!mounts[0].write(fh.value(), 0, data).ok()) return 1;
    Micros elapsed = std::max<Micros>(world.net().now() - t0, 1);
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f MB/s",
                  static_cast<double>(kSize) / elapsed);
    cell(std::string("local write")); cell(std::string(buf));
    cell(static_cast<double>(meter.delta().messages) / (kSize / 1024.0));
    endrow();

    // Cold remote read from node 4.
    auto fh4 = mounts[4].open("/bench/big");
    if (!fh4.ok()) return 1;
    meter.reset();
    t0 = world.net().now();
    auto r = mounts[4].read(fh4.value(), 0, kSize);
    if (!r.ok() || r.value().size() != kSize) return 1;
    elapsed = std::max<Micros>(world.net().now() - t0, 1);
    std::snprintf(buf, sizeof(buf), "%.1f MB/s",
                  static_cast<double>(kSize) / elapsed);
    cell(std::string("remote read cold")); cell(std::string(buf));
    cell(static_cast<double>(meter.delta().messages) / (kSize / 1024.0));
    endrow();

    // Warm remote read: blocks are now cached on node 4.
    meter.reset();
    t0 = world.net().now();
    r = mounts[4].read(fh4.value(), 0, kSize);
    if (!r.ok()) return 1;
    elapsed = std::max<Micros>(world.net().now() - t0, 1);
    std::snprintf(buf, sizeof(buf), "%.1f MB/s",
                  static_cast<double>(kSize) / elapsed);
    cell(std::string("remote read warm")); cell(std::string(buf));
    cell(static_cast<double>(meter.delta().messages) / (kSize / 1024.0));
    endrow();
  }

  std::printf(
      "\nLayout ablation (Section 4.1): block-per-region vs one contiguous\n"
      "region; 64 KiB write + remote read from node 3:\n\n");
  table_header({"layout", "write locks", "write msgs", "read latency"});
  {
    auto run_layout = [&](kfs::FileLayout layout, const char* name) {
      kfs::FileOptions opts;
      opts.layout = layout;
      opts.contiguous_capacity = 128 * 1024;
      const std::string path = std::string("/layout_") + name;
      auto fh = mounts[0].create(path, opts);
      if (!fh.ok()) std::abort();
      const obs::Counter& granted =
          world.node(0).metrics().counter("node.locks_granted");
      const auto locks0 = granted.value();
      TrafficMeter meter(world);
      if (!mounts[0].write(fh.value(), 0, fill(64 * 1024, 0x11)).ok()) {
        std::abort();
      }
      const auto locks = granted.value() - locks0;
      const auto msgs = meter.delta().messages;
      auto fh3 = mounts[3].open(path);
      if (!fh3.ok()) std::abort();
      const Micros t0 = world.net().now();
      if (!mounts[3].read(fh3.value(), 0, 64 * 1024).ok()) std::abort();
      const Micros read_us = world.net().now() - t0;
      cell(std::string(name));
      cell(static_cast<std::uint64_t>(locks));
      cell(msgs);
      cell(us(read_us));
      endrow();
    };
    run_layout(kfs::FileLayout::kBlockPerRegion, "block-per-region");
    run_layout(kfs::FileLayout::kContiguous, "contiguous");
  }

  std::printf(
      "\nHot-file replication (min_replicas=3 via per-file attributes):\n\n");
  table_header({"scenario", "read latency", "messages"});
  {
    kfs::FileOptions hot;
    hot.attrs.min_replicas = 3;
    auto fh = mounts[1].create("/bench/hot", hot);
    if (!fh.ok()) return 1;
    if (!mounts[1].write(fh.value(), 0, fill(4096, 0xAA)).ok()) return 1;
    world.pump_for(3'000'000);

    auto fh3 = mounts[3].open("/bench/hot");
    if (!fh3.ok()) return 1;
    TrafficMeter meter(world);
    Micros t0 = world.net().now();
    if (!mounts[3].read(fh3.value(), 0, 4096).ok()) return 1;
    cell(std::string("read, home alive")); cell(us(world.net().now() - t0));
    cell(meter.delta().messages); endrow();

    world.net().set_node_up(1, false);  // kill the file's home
    meter.reset();
    t0 = world.net().now();
    auto fh2 = mounts[2].open("/bench/hot");
    bool ok = false;
    if (fh2.ok()) {
      auto r = mounts[2].read(fh2.value(), 0, 4096);
      ok = r.ok() && r.value()[0] == 0xAA;
    }
    cell(std::string(ok ? "read, home dead" : "READ FAILED"));
    cell(us(world.net().now() - t0));
    cell(meter.delta().messages); endrow();
    world.net().set_node_up(1, true);
  }

  std::printf(
      "\nShape check vs paper: namespace ops cost a handful of lock/fetch\n"
      "exchanges; warm reads run at local-memory speed with zero traffic;\n"
      "a replicated hot file survives its home's crash — 'the failure of\n"
      "one filesystem instance will not cause the entire filesystem to\n"
      "become unavailable.'\n");
  return 0;
}
