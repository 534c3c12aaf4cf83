// Durable-recovery and home fail-over tests (docs/recovery.md): the
// metadata write-ahead journal, byte-identical restart recovery, scripted
// crash/reboot fault injection, and home promotion keeping writes available
// after the home dies.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>

#include "core/client.h"
#include "storage/disk_store.h"
#include "storage/meta_journal.h"

namespace khz::core {
namespace {

using consistency::LockMode;

namespace fs = std::filesystem;

Bytes fill(std::size_t n, std::uint8_t v) { return Bytes(n, v); }

class TempDir {
 public:
  TempDir() {
    // Pid-qualified: ctest runs each case in its own process, so a static
    // counter alone collides across concurrently running cases.
    dir_ = fs::temp_directory_path() /
           ("khz_recovery_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
};

// ---------------------------------------------------------------------------
// MetaJournal unit tests
// ---------------------------------------------------------------------------

TEST(MetaJournal, AppendThenReplayRoundTrips) {
  TempDir tmp;
  const fs::path p = tmp.path() / "j";
  {
    storage::MetaJournal j(p);
    EXPECT_TRUE(j.append(Bytes{1, 2, 3}).ok());
    EXPECT_TRUE(j.append(Bytes{}).ok());  // empty records are legal
    EXPECT_TRUE(j.append(Bytes{9}).ok());
    EXPECT_EQ(j.appended(), 3u);
  }
  storage::MetaJournal j(p);  // fresh open appends after existing records
  std::vector<Bytes> got;
  EXPECT_EQ(j.replay([&](const Bytes& r) { got.push_back(r); }), 3u);
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], (Bytes{1, 2, 3}));
  EXPECT_TRUE(got[1].empty());
  EXPECT_EQ(got[2], (Bytes{9}));
}

TEST(MetaJournal, TornTailStopsReplayWithoutPoisoningPrefix) {
  TempDir tmp;
  const fs::path p = tmp.path() / "j";
  {
    storage::MetaJournal j(p);
    ASSERT_TRUE(j.append(Bytes{42}).ok());
    ASSERT_TRUE(j.append(Bytes{43}).ok());
  }
  {
    // A crash mid-append leaves a partial frame: a length header with no
    // body behind it.
    std::ofstream out(p, std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 0x01};
    out.write(torn, sizeof(torn));
  }
  storage::MetaJournal j(p);
  std::vector<Bytes> got;
  EXPECT_EQ(j.replay([&](const Bytes& r) { got.push_back(r); }), 2u);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0], (Bytes{42}));
  EXPECT_EQ(got[1], (Bytes{43}));
}

TEST(MetaJournal, CorruptChecksumStopsReplay) {
  TempDir tmp;
  const fs::path p = tmp.path() / "j";
  {
    storage::MetaJournal j(p);
    ASSERT_TRUE(j.append(Bytes{1}).ok());
    ASSERT_TRUE(j.append(Bytes{2}).ok());
  }
  {
    // Flip a byte in the second record's payload (last byte of the file).
    std::fstream f(p, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(-1, std::ios::end);
    f.put(static_cast<char>(0xFF));
  }
  storage::MetaJournal j(p);
  std::size_t n = 0;
  EXPECT_EQ(j.replay([&](const Bytes&) { ++n; }), 1u);
  EXPECT_EQ(n, 1u);
}

TEST(MetaJournal, ResetTruncatesAndKeepsAccepting) {
  TempDir tmp;
  storage::MetaJournal j(tmp.path() / "j");
  ASSERT_TRUE(j.append(Bytes{1}).ok());
  ASSERT_TRUE(j.reset().ok());
  EXPECT_EQ(j.appended(), 0u);
  EXPECT_EQ(j.replay([](const Bytes&) {}), 0u);
  ASSERT_TRUE(j.append(Bytes{7}).ok());
  std::vector<Bytes> got;
  EXPECT_EQ(j.replay([&](const Bytes& r) { got.push_back(r); }), 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Bytes{7}));
}

TEST(MetaJournal, SyncOnCommitAppendsStayReplayableAcrossResets) {
  TempDir tmp;
  const fs::path p = tmp.path() / "j";
  {
    storage::MetaJournal j(p);
    ASSERT_TRUE(j.append(Bytes{1, 2, 3}).ok());
    ASSERT_TRUE(j.append(Bytes{}).ok());
    ASSERT_TRUE(j.sync().ok());
    // Compaction truncates the file in place; the fd must keep working for
    // appends and syncs after the reset.
    ASSERT_TRUE(j.reset().ok());
    ASSERT_TRUE(j.append(Bytes{7, 8}).ok());
    ASSERT_TRUE(j.sync().ok());
  }
  storage::MetaJournal j(p);
  std::vector<Bytes> got;
  EXPECT_EQ(j.replay([&](const Bytes& r) { got.push_back(r); }), 1u);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (Bytes{7, 8}));
}

// ---------------------------------------------------------------------------
// Restart recovery (journal + snapshot replay through a real node)
// ---------------------------------------------------------------------------

TEST(RecoveryTest, RestartServesPreCrashRegionsByteIdentically) {
  TempDir tmp;
  SimWorld world({.nodes = 3, .disk_root = tmp.path()});
  // Two regions on node 2 with distinct patterned contents, plus custom
  // attributes — descriptors, pool state and page bytes must all survive.
  RegionAttrs attrs;
  attrs.min_replicas = 1;
  auto base_a = world.create_region(2, 8192, attrs);
  ASSERT_TRUE(base_a.ok());
  auto base_b = world.create_region(2, 4096);
  ASSERT_TRUE(base_b.ok());
  Bytes pattern_a(8192);
  for (std::size_t i = 0; i < pattern_a.size(); ++i) {
    pattern_a[i] = static_cast<std::uint8_t>(i * 31 + 7);
  }
  ASSERT_TRUE(world.put(2, {base_a.value(), 8192}, pattern_a).ok());
  ASSERT_TRUE(world.put(2, {base_b.value(), 4096}, fill(4096, 0xB7)).ok());

  // kill -9 + reboot: volatile state gone, disk (snapshot + journal) kept.
  world.crash_node(2);
  ASSERT_FALSE(world.node_alive(2));
  world.restart_node(2);

  // The rebooted home serves both regions byte-identically, locally...
  auto local = world.get(2, {base_a.value(), 8192});
  ASSERT_TRUE(local.ok()) << to_string(local.error());
  EXPECT_EQ(local.value(), pattern_a);
  // ...and to a remote client.
  auto remote = world.get(1, {base_b.value(), 4096});
  ASSERT_TRUE(remote.ok()) << to_string(remote.error());
  EXPECT_EQ(remote.value(), fill(4096, 0xB7));

  // Attributes survive too.
  auto got_attrs = world.getattr(1, base_a.value());
  ASSERT_TRUE(got_attrs.ok());
  EXPECT_EQ(got_attrs.value().min_replicas, 1u);
}

TEST(RecoveryTest, RepeatedRestartsKeepReplayingTheJournal) {
  // Each incarnation appends more journal records on top of the same
  // snapshot; recovery must compose them all.
  TempDir tmp;
  SimWorld world({.nodes = 2, .disk_root = tmp.path()});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  for (std::uint8_t round = 1; round <= 3; ++round) {
    ASSERT_TRUE(world.put(1, {base.value(), 4096}, fill(4096, round)).ok());
    world.restart_node(1);
    auto r = world.get(1, {base.value(), 4096});
    ASSERT_TRUE(r.ok()) << "round " << int(round);
    EXPECT_EQ(r.value()[0], round);
  }
}

TEST(RecoveryTest, UnreservedRegionStaysGoneAfterRestart) {
  // The journal records erases too: a region dropped before the crash must
  // not resurrect on reboot.
  TempDir tmp;
  SimWorld world({.nodes = 2, .disk_root = tmp.path()});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(1, {base.value(), 4096}, fill(4096, 1)).ok());
  ASSERT_TRUE(world.unreserve(1, base.value()).ok());
  world.pump_for(500'000);

  world.restart_node(1);
  auto r = world.get(1, {base.value(), 4096});
  EXPECT_FALSE(r.ok());
}

// ---------------------------------------------------------------------------
// Process death: a real SIGKILL against the simulator's crash
// ---------------------------------------------------------------------------

TEST(RecoveryTest, KilledProcessKeepsEveryAcknowledgedWrite) {
  // A forked child writes v1 then v2 to a page homed on node 1 of a 2-node
  // world and is killed the moment v2's put returns: no destructor, no
  // commit, no stop(). Reopening its disk root must serve v2 at the home
  // and at a remote reader, in every durability configuration, and
  // crash_node/restart_node on a second root must read the same.
  struct Config {
    const char* name;
    bool sync_metadata;
    Micros group_commit_us;
  };
  const Config configs[] = {{"default", false, 0},
                            {"sync_metadata", true, 0},
                            {"sync_metadata+group_commit", true, 5'000}};
  Bytes v1(4096);
  Bytes v2(4096);
  for (std::size_t i = 0; i < v1.size(); ++i) {
    v1[i] = static_cast<std::uint8_t>(i * 31 + 7);
    v2[i] = static_cast<std::uint8_t>(i * 17 + 3);
  }
  // The probe: returns the page's address once v2's put has returned.
  const auto write_v1_v2 = [&](SimWorld& world) -> Result<GlobalAddress> {
    auto base = world.create_region(1, 4096);
    if (!base.ok()) return base.error();
    for (const Bytes* v : {&v1, &v2}) {
      if (Status s = world.put(1, {base.value(), 4096}, *v); !s.ok()) {
        return s.error();
      }
    }
    return base.value();
  };
  const auto name = [&](const Bytes& b) {
    if (b == v1) return "v1";
    if (b == v2) return "v2";
    return b == Bytes(b.size(), 0) ? "zeros" : "other bytes";
  };
  const auto reads_v2_everywhere = [&](SimWorld& world,
                                       const GlobalAddress& base,
                                       const char* after) {
    for (NodeId reader : {NodeId{1}, NodeId{0}}) {
      auto got = world.get(reader, {base, 4096});
      ASSERT_TRUE(got.ok()) << after << ", reader " << reader << ": "
                            << to_string(got.error());
      EXPECT_STREQ(name(got.value()), "v2")
          << after << ", reader " << reader;
    }
  };

  TempDir tmp;
  for (const Config& c : configs) {
    SCOPED_TRACE(c.name);
    SimWorldOptions opts;
    opts.nodes = 2;
    opts.sync_metadata = c.sync_metadata;
    opts.group_commit_us = c.group_commit_us;
    opts.disk_root = tmp.path() / (std::string("killed_") + c.name);

    int pipe_fds[2] = {-1, -1};
    ASSERT_EQ(::pipe(pipe_fds), 0);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(pipe_fds[0]);
      SimWorld world(opts);
      const auto base = write_v1_v2(world);
      if (!base.ok()) ::_exit(2);
      const std::uint64_t addr[2] = {base.value().hi, base.value().lo};
      if (::write(pipe_fds[1], addr, sizeof(addr)) != sizeof(addr)) {
        ::_exit(3);
      }
      std::raise(SIGKILL);
      ::_exit(4);
    }
    ::close(pipe_fds[1]);
    std::uint64_t addr[2] = {};
    const ::ssize_t n = ::read(pipe_fds[0], addr, sizeof(addr));
    ::close(pipe_fds[0]);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status)) << "child exited with status "
                                     << WEXITSTATUS(status);
    ASSERT_EQ(WTERMSIG(status), SIGKILL);
    ASSERT_EQ(n, static_cast<::ssize_t>(sizeof(addr)));
    const GlobalAddress base{addr[0], addr[1]};
    {
      SimWorld reopened(opts);
      reads_v2_everywhere(reopened, base, "SIGKILL");
    }

    opts.disk_root = tmp.path() / (std::string("simulated_") + c.name);
    SimWorld world(opts);
    const auto sim_base = write_v1_v2(world);
    ASSERT_TRUE(sim_base.ok());
    ASSERT_EQ(sim_base.value(), base);
    world.crash_node(1);
    world.crash_node(0);
    world.restart_node(0);
    world.restart_node(1);
    reads_v2_everywhere(world, base, "crash_node");
  }
}

// ---------------------------------------------------------------------------
// Torn writes (power loss mid-append in the segment log / journal)
// ---------------------------------------------------------------------------

// The highest-numbered segment file under a DiskStore root — where a torn
// tail lives (appends only ever go to the head segment).
fs::path head_segment(const fs::path& store_root) {
  fs::path head;
  for (const auto& entry :
       fs::directory_iterator(store_root / "segments")) {
    if (entry.path().extension() != ".seg") continue;
    if (head.empty() || entry.path().filename() > head.filename()) {
      head = entry.path();
    }
  }
  return head;
}

TEST(RecoveryTest, TornSegmentAndJournalTailsRecoverLastGroupCommit) {
  // Group 1 (page v1 + its journal record) is committed; group 2 (page v2
  // + its record) is appended but the "power" dies mid-write: the segment
  // record is cut short and the journal tail is a partial frame. Recovery
  // must land exactly on group 1, byte-identically.
  TempDir tmp;
  const fs::path root = tmp.path() / "store";
  Bytes v1(4096);
  for (std::size_t i = 0; i < v1.size(); ++i) {
    v1[i] = static_cast<std::uint8_t>(i * 13 + 5);
  }
  const GlobalAddress p{7, 0x4000};
  {
    storage::DiskStore d(root);
    d.set_sync_on_commit(true);
    d.set_group_commit(true);
    ASSERT_TRUE(d.put(p, v1).ok());
    ASSERT_TRUE(d.journal().append(Bytes{1}).ok());
    ASSERT_TRUE(d.commit().ok());  // group 1 durable
    ASSERT_TRUE(d.put(p, fill(4096, 0xEE)).ok());  // group 2, never commits
    ASSERT_TRUE(d.journal().append(Bytes{2}).ok());
  }
  // Tear both tails: cut into the v2 segment record and leave a partial
  // frame at the journal's end.
  const fs::path seg = head_segment(root);
  fs::resize_file(seg, fs::file_size(seg) - 100);
  const fs::path jnl = root / "meta.journal";
  fs::resize_file(jnl, fs::file_size(jnl) - 2);

  storage::DiskStore d2(root);
  auto got = d2.get(p);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, v1);  // byte-identical group-1 state
  std::vector<Bytes> records;
  EXPECT_EQ(d2.journal().replay([&](const Bytes& r) { records.push_back(r); }),
            1u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (Bytes{1}));
}

TEST(RecoveryTest, TornWriteOnCrashedNodeReplaysGroupCommittedState) {
  // End to end through a node: v1 reaches a group commit, v2's segment
  // append is torn by the crash (plus journal tail garbage). The rebooted
  // node serves v1 byte-identically — never a half-written v2.
  TempDir tmp;
  SimWorld world({.nodes = 2,
                  .disk_root = tmp.path(),
                  .sync_metadata = true,
                  .group_commit_us = 5'000});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  Bytes v1(4096);
  for (std::size_t i = 0; i < v1.size(); ++i) {
    v1[i] = static_cast<std::uint8_t>(i * 29 + 3);
  }
  ASSERT_TRUE(world.put(1, {base.value(), 4096}, v1).ok());
  world.pump_for(20'000);  // several group-commit ticks: v1 is durable
  ASSERT_TRUE(world.put(1, {base.value(), 4096}, fill(4096, 0xEE)).ok());

  world.crash_node(1);
  // Model the mid-append power cut with file surgery on the dead node's
  // store: tear the newest segment record and scribble a torn frame onto
  // the journal tail.
  const fs::path root = tmp.path() / "node1";
  const fs::path seg = head_segment(root);
  fs::resize_file(seg, fs::file_size(seg) - 100);
  {
    std::ofstream out(root / "meta.journal",
                      std::ios::binary | std::ios::app);
    const char torn[] = {0x50, 0x00, 0x00, 0x00, 0x33, 0x07};
    out.write(torn, sizeof(torn));
  }
  world.restart_node(1);

  auto local = world.get(1, {base.value(), 4096});
  ASSERT_TRUE(local.ok()) << to_string(local.error());
  EXPECT_EQ(local.value(), v1);
  auto remote = world.get(0, {base.value(), 4096});
  ASSERT_TRUE(remote.ok()) << to_string(remote.error());
  EXPECT_EQ(remote.value(), v1);
}

// ---------------------------------------------------------------------------
// Metadata checkpoints
// ---------------------------------------------------------------------------

TEST(RecoveryTest, CheckpointCutShortKeepsEveryRegionAndPageVersion) {
  // A forked "node" checkpoints region a, journals region b and more page
  // versions, then dies right after a second snapshot write that failed
  // part-way (the file-size limit cuts it, as a full disk or a kill
  // mid-write would). The store it leaves must reopen with everything:
  // the old snapshot plus the whole journal.
  TempDir tmp;
  const fs::path root = tmp.path() / "store";
  const auto region = [](std::uint64_t base) {
    RegionDescriptor d;
    d.range = {{0, base}, 4 * 4096};
    d.home_nodes = {1};
    return d;
  };
  MetaLog::Snapshot want;
  want.granted_bytes = 1 << 20;
  want.regions[{0, 0x10000}] = region(0x10000);
  want.regions[{0, 0x20000}] = region(0x20000);
  for (std::uint64_t p = 0; p < 4; ++p) {
    want.page_versions[{0, 0x10000 + p * 4096}] = 3 + p;
    want.page_versions[{0, 0x20000 + p * 4096}] = 7 + p;
  }

  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    auto disk = std::make_shared<storage::DiskStore>(root);
    storage::StorageHierarchy storage(16, disk);
    MetaLog::Snapshot state;
    MetaLog log(storage, 1, [&] { return state; });
    const auto record = [&](const GlobalAddress& base) {
      state.regions[base] = want.regions.at(base);
      log.record_region(state.regions[base]);
      for (auto it = want.page_versions.lower_bound(base);
           it != want.page_versions.end() &&
           state.regions[base].range.contains(it->first);
           ++it) {
        state.page_versions[it->first] = it->second;
        log.record_page(it->first, it->second);
      }
    };
    state.granted_bytes = want.granted_bytes;
    log.record_pool(state.granted_bytes, state.pool);
    record({0, 0x10000});
    if (!log.checkpoint().ok()) ::_exit(2);
    record({0, 0x20000});  // journal only
    // No file may grow past 16 bytes from here on: the snapshot write
    // fails with EFBIG instead of raising SIGXFSZ.
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit lim{};
    ::getrlimit(RLIMIT_FSIZE, &lim);
    lim.rlim_cur = 16;
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) ::_exit(3);
    ::_exit(log.checkpoint().ok() ? 4 : 0);  // no destructor runs
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0) << "the cut snapshot must report failure";

  auto disk = std::make_shared<storage::DiskStore>(root);
  storage::StorageHierarchy storage(16, disk);
  MetaLog log(storage, 1, [] { return MetaLog::Snapshot{}; });
  const MetaLog::Snapshot got = log.recover();
  EXPECT_EQ(got.granted_bytes, want.granted_bytes);
  ASSERT_EQ(got.regions.size(), want.regions.size());
  for (const auto& [base, desc] : want.regions) {
    ASSERT_TRUE(got.regions.contains(base));
    EXPECT_EQ(got.regions.at(base).range, desc.range);
  }
  EXPECT_EQ(got.page_versions, want.page_versions);
}

TEST(RecoveryTest, IdleCheckpointTickKeepsTheSnapshot) {
  // A tick with nothing journaled leaves node_state.meta alone; the next
  // tick after a write publishes a fresh one (write + rename: new inode).
  TempDir tmp;
  SimWorld world({.nodes = 2,
                  .disk_root = tmp.path(),
                  .checkpoint_interval = 100'000});
  auto base = world.create_region(1, 4096);
  ASSERT_TRUE(base.ok());
  world.pump_for(100'000);  // one tick snapshots the reservation
  const fs::path meta = tmp.path() / "node1" / "node_state.meta";
  const auto inode = [&] {
    struct stat st {};
    return ::stat(meta.c_str(), &st) == 0 ? st.st_ino : ino_t{0};
  };
  const ino_t before = inode();
  ASSERT_NE(before, ino_t{0});
  // Checked every tick: the filesystem may hand a freed inode number out
  // again, so two rewrites could land back on `before`.
  for (int tick = 0; tick < 20; ++tick) {
    world.pump_for(100'000);
    ASSERT_EQ(inode(), before) << "idle tick " << tick;
  }
  ASSERT_TRUE(world.put(1, {base.value(), 4096}, fill(4096, 7)).ok());
  world.pump_for(100'000);
  EXPECT_NE(inode(), before);
}

TEST(RecoveryTest, DeallocatedPageStaysFreeAcrossRestart) {
  TempDir tmp;
  SimWorld world({.nodes = 2, .disk_root = tmp.path()});
  auto base = world.create_region(1, 2 * 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(1, {base.value(), 2 * 4096}, fill(2 * 4096, 7)).ok());
  const GlobalAddress freed = base.value().plus(4096);
  ASSERT_TRUE(world.deallocate(1, {freed, 4096}).ok());
  world.pump_for(100'000);
  ASSERT_EQ(world.node(1).page_directory().find(freed), nullptr);
  world.restart_node(1);
  EXPECT_EQ(world.node(1).page_directory().find(freed), nullptr);
  auto kept = world.get(0, {base.value(), 4096});
  ASSERT_TRUE(kept.ok()) << to_string(kept.error());
  EXPECT_EQ(kept.value(), fill(4096, 7));
}

TEST(RecoveryTest, CheckpointTimerCompactsSegmentsAndRestartServesPages) {
  // The checkpoint timer snapshots the metadata journal and compacts cold
  // segments under a per-tick page budget. A cold region written once sits
  // in the first segment; a hot region overwritten ~34 MiB's worth seals
  // four more. Compaction must copy the cold pages out, unlink the dead
  // segments, and leave a store that restarts byte-identically.
  TempDir tmp;
  SimWorld world({.nodes = 2,
                  .disk_root = tmp.path(),
                  .checkpoint_interval = 100'000,
                  .compaction_pages_per_tick = 64});
  constexpr std::uint64_t kCold = 16 * 4096;
  constexpr std::uint64_t kHot = 64 * 4096;
  auto cold = world.create_region(1, kCold);
  auto hot = world.create_region(1, kHot);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(hot.ok());
  const auto pattern = [](std::uint64_t n, std::uint8_t salt) {
    Bytes b(n);
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] = static_cast<std::uint8_t>(i * 31 + salt);
    }
    return b;
  };
  ASSERT_TRUE(world.put(1, {cold.value(), kCold}, pattern(kCold, 0xC0)).ok());
  for (int round = 0; round < 128; ++round) {
    ASSERT_TRUE(world
                    .put(1, {hot.value(), kHot},
                         pattern(kHot, static_cast<std::uint8_t>(round)))
                    .ok());
  }
  auto& metrics = world.node(1).metrics();
  const auto live_before = metrics.gauge("storage.segments_live").value();
  EXPECT_GE(live_before, 5);

  world.pump_for(1'000'000);  // ten checkpoint ticks
  EXPECT_GT(metrics.counter("storage.compaction_pages").value(), 0u);
  EXPECT_LT(metrics.gauge("storage.segments_live").value(), live_before);

  world.restart_node(1);
  for (NodeId reader : {NodeId{1}, NodeId{0}}) {
    auto c = world.get(reader, {cold.value(), kCold});
    ASSERT_TRUE(c.ok()) << to_string(c.error());
    EXPECT_EQ(c.value(), pattern(kCold, 0xC0));
    auto h = world.get(reader, {hot.value(), kHot});
    ASSERT_TRUE(h.ok()) << to_string(h.error());
    EXPECT_EQ(h.value(), pattern(kHot, 127));
  }
}

// ---------------------------------------------------------------------------
// Scripted fault injection
// ---------------------------------------------------------------------------

TEST(RecoveryTest, ScriptedCrashRebootCycleRecovers) {
  TempDir tmp;
  SimWorld world({.nodes = 3, .disk_root = tmp.path(),
                  .rpc_timeout = 50'000});
  auto base = world.create_region(2, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(2, {base.value(), 4096}, fill(4096, 0xCD)).ok());

  // Script the whole scenario up front, then drive it with one pump: node
  // 2 dies at t+200ms and reboots at t+600ms.
  world.schedule_crash(200'000, 2);
  world.schedule_restart(600'000, 2);
  world.pump_for(1'000'000);

  ASSERT_TRUE(world.node_alive(2));
  auto r = world.get(1, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0xCD);
}

TEST(RecoveryTest, ScriptedPartitionHealsOnSchedule) {
  SimWorld world({.nodes = 3, .rpc_timeout = 50'000});
  auto base = world.create_region(0, 4096);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(0, {base.value(), 4096}, fill(4096, 0x11)).ok());

  const Micros heal_at = world.net().now() + 400'000;
  world.schedule_partition(100'000, {0, 1}, {2});
  world.schedule_heal(400'000);
  world.pump_for(150'000);  // partition is now in force

  // The cut-off node's get stalls on retries while partitioned; pumping
  // through those retries advances virtual time past the scheduled heal,
  // after which the operation completes. Success strictly after heal_at
  // shows the partition actually blocked it.
  auto r = world.get(2, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0x11);
  EXPECT_GE(world.net().now(), heal_at);
}

// ---------------------------------------------------------------------------
// Home fail-over (write availability across a home crash)
// ---------------------------------------------------------------------------

TEST(RecoveryTest, HomeFailoverPromotesReplicaAndServesWrites) {
  // Region homed on node 1 with a replica. Crash node 1; once the failure
  // detector fires, the surviving copy-set member with the highest id
  // promotes itself to home, and a writer on a third node completes
  // lock(kReadWrite)+write+unlock with no manual intervention.
  SimWorld world({.nodes = 4, .rpc_timeout = 50'000,
                  .ping_interval = 50'000});
  RegionAttrs attrs;
  attrs.min_replicas = 2;
  auto base = world.create_region(1, 4096, attrs);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(1, {base.value(), 4096}, fill(4096, 0xA1)).ok());
  world.pump_for(2'000'000);  // replica maintenance settles

  world.crash_node(1);
  world.pump_for(800'000);  // 3 missed pings -> peers mark node 1 down

  // Write through a node that never touched the region: it resolves the
  // promoted home via the re-registered hints and the write is granted
  // once the replica floor is rebuilt.
  auto s = world.put(3, {base.value(), 4096}, fill(4096, 0xA2));
  ASSERT_TRUE(s.ok()) << to_string(s.error());

  auto r = world.get(0, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0xA2);

  // Exactly one surviving node promoted itself (the deterministic heir).
  std::size_t promotions = 0;
  for (NodeId n : {NodeId{0}, NodeId{2}, NodeId{3}}) {
    promotions += world.node(n).metrics().counter("node.promotions").value();
  }
  EXPECT_EQ(promotions, 1u);
}

TEST(RecoveryTest, FailoverKeepsReadsFlowingWhileWritesRebuild) {
  SimWorld world({.nodes = 4, .rpc_timeout = 50'000,
                  .ping_interval = 50'000});
  RegionAttrs attrs;
  attrs.min_replicas = 3;
  auto base = world.create_region(1, 4096, attrs);
  ASSERT_TRUE(base.ok());
  ASSERT_TRUE(world.put(1, {base.value(), 4096}, fill(4096, 0x55)).ok());
  world.pump_for(2'000'000);

  world.crash_node(1);
  world.pump_for(800'000);

  // Reads are never gated by the recovery window.
  auto r = world.get(2, {base.value(), 4096});
  ASSERT_TRUE(r.ok()) << to_string(r.error());
  EXPECT_EQ(r.value()[0], 0x55);
  // And writes complete once the copyset is rebuilt.
  EXPECT_TRUE(world.put(2, {base.value(), 4096}, fill(4096, 0x56)).ok());
}

}  // namespace
}  // namespace khz::core
