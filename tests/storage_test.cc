// Unit tests for src/storage: memory store (LRU, pins), segment store
// (append log, rotation, torn tails, compaction, group commit), disk store
// (persistence, scan, metadata blobs), the two-level hierarchy
// (promotion, batched victimization, eviction hook), and the page
// directory.
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <filesystem>
#include <fstream>

#include "storage/hierarchy.h"
#include "storage/page_directory.h"

namespace khz::storage {
namespace {

namespace fs = std::filesystem;

Bytes page(std::uint8_t fill) { return Bytes(4096, fill); }

class TempDir {
 public:
  TempDir() {
    // Pid-qualified: ctest runs each case in its own process, so a static
    // counter alone collides across concurrently running cases.
    dir_ = fs::temp_directory_path() /
           ("khz_storage_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    fs::remove_all(dir_);
  }
  ~TempDir() { fs::remove_all(dir_); }
  [[nodiscard]] const fs::path& path() const { return dir_; }

 private:
  static inline int counter_ = 0;
  fs::path dir_;
};

// ---------------------------------------------------------------------------
// MemoryStore
// ---------------------------------------------------------------------------

TEST(MemoryStore, PutGetOverwrite) {
  MemoryStore m;
  m.put({0, 0}, page(1));
  ASSERT_NE(m.get({0, 0}), nullptr);
  EXPECT_EQ((*m.get({0, 0}))[0], 1);
  m.put({0, 0}, page(2));
  EXPECT_EQ((*m.get({0, 0}))[0], 2);
  EXPECT_EQ(m.size(), 1u);
}

TEST(MemoryStore, VictimIsLeastRecentlyUsed) {
  MemoryStore m(3);
  m.put({0, 0}, page(0));
  m.put({0, 4096}, page(1));
  m.put({0, 8192}, page(2));
  (void)m.get({0, 0});  // refresh 0: LRU is now 4096
  EXPECT_EQ(m.pick_victim(), GlobalAddress(0, 4096));
}

TEST(MemoryStore, PinnedPagesAreNotVictims) {
  MemoryStore m(2);
  m.put({0, 0}, page(0));
  m.put({0, 4096}, page(1));
  m.pin({0, 0});
  m.pin({0, 4096});
  EXPECT_FALSE(m.pick_victim().has_value());
  m.unpin({0, 4096});
  EXPECT_EQ(m.pick_victim(), GlobalAddress(0, 4096));
}

TEST(MemoryStore, NestedPinsRequireMatchingUnpins) {
  MemoryStore m;
  m.put({0, 0}, page(0));
  m.pin({0, 0});
  m.pin({0, 0});
  m.unpin({0, 0});
  EXPECT_FALSE(m.pick_victim().has_value());
  m.unpin({0, 0});
  EXPECT_TRUE(m.pick_victim().has_value());
}

TEST(MemoryStore, EraseRemovesFromLru) {
  MemoryStore m;
  m.put({0, 0}, page(0));
  EXPECT_TRUE(m.erase({0, 0}));
  EXPECT_FALSE(m.erase({0, 0}));
  EXPECT_EQ(m.get({0, 0}), nullptr);
  EXPECT_FALSE(m.pick_victim().has_value());
}

TEST(MemoryStore, OverCapacityDetection) {
  MemoryStore m(2);
  m.put({0, 0}, page(0));
  m.put({0, 4096}, page(1));
  EXPECT_FALSE(m.over_capacity());
  m.put({0, 8192}, page(2));
  EXPECT_TRUE(m.over_capacity());
}

TEST(MemoryStore, GetMutableEditsInPlace) {
  MemoryStore m;
  m.put({0, 0}, page(0));
  (*m.get_mutable({0, 0}))[5] = 42;
  EXPECT_EQ((*m.get({0, 0}))[5], 42);
}

// ---------------------------------------------------------------------------
// SegmentStore
// ---------------------------------------------------------------------------

// The highest-numbered segment file (the head), where a torn tail lives.
fs::path head_segment(const fs::path& dir) {
  fs::path head;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() != ".seg") continue;
    if (head.empty() || entry.path().filename() > head.filename()) {
      head = entry.path();
    }
  }
  return head;
}

TEST(SegmentStore, RoundTripAndOverwrite) {
  TempDir tmp;
  SegmentStore s(tmp.path());
  EXPECT_TRUE(s.put({1, 0}, page(1)).ok());
  EXPECT_TRUE(s.put({1, 4096}, page(2)).ok());
  EXPECT_TRUE(s.put({1, 0}, page(3)).ok());  // newest wins
  EXPECT_EQ(s.live_pages(), 2u);
  auto got = s.get({1, 0});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)[0], 3);
  EXPECT_TRUE(s.contains({1, 4096}));
  EXPECT_FALSE(s.contains({2, 0}));
}

TEST(SegmentStore, TombstonePersistsAcrossReopen) {
  TempDir tmp;
  {
    SegmentStore s(tmp.path());
    ASSERT_TRUE(s.put({0, 0}, page(1)).ok());
    ASSERT_TRUE(s.put({0, 4096}, page(2)).ok());
    EXPECT_TRUE(s.erase({0, 0}));
    EXPECT_FALSE(s.erase({0, 0}));  // already gone
  }
  SegmentStore s2(tmp.path());
  EXPECT_FALSE(s2.contains({0, 0}));
  EXPECT_TRUE(s2.contains({0, 4096}));
  EXPECT_EQ(s2.live_pages(), 1u);
}

TEST(SegmentStore, NewestVersionWinsAcrossReopen) {
  TempDir tmp;
  {
    SegmentStore s(tmp.path());
    ASSERT_TRUE(s.put({0, 0}, page(1)).ok());
    ASSERT_TRUE(s.put({0, 0}, page(9)).ok());
  }
  SegmentStore s2(tmp.path());
  auto got = s2.get({0, 0});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)[0], 9);
  EXPECT_EQ(s2.live_pages(), 1u);
}

TEST(SegmentStore, RotationBoundsSegmentSize) {
  TempDir tmp;
  SegmentConfig cfg;
  cfg.segment_bytes = 16 << 10;  // ~4 pages per segment
  SegmentStore s(tmp.path(), cfg);
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(
        s.put({0, static_cast<std::uint64_t>(i) * 4096}, page(i)).ok());
  }
  EXPECT_GT(s.stats().segments, 1u);
  EXPECT_EQ(s.live_pages(), 32u);
  // Every page still readable after spilling across segments.
  for (int i = 0; i < 32; ++i) {
    auto got = s.get({0, static_cast<std::uint64_t>(i) * 4096});
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ((*got)[0], static_cast<std::uint8_t>(i));
  }
}

TEST(SegmentStore, TornTailIsTruncatedOnReopen) {
  TempDir tmp;
  {
    SegmentStore s(tmp.path());
    ASSERT_TRUE(s.put({0, 0}, page(1)).ok());
    ASSERT_TRUE(s.put({0, 4096}, page(2)).ok());
    ASSERT_TRUE(s.commit(/*sync=*/false).ok());
  }
  // A crash mid-append leaves a partial record at the tail: simulate by
  // appending a truncated header + garbage.
  const fs::path head = head_segment(tmp.path());
  const auto intact = fs::file_size(head);
  {
    std::ofstream out(head, std::ios::binary | std::ios::app);
    const Bytes garbage{0x4b, 0x5a, 0x53, 0x47, 0x01, 0xde, 0xad};
    out.write(reinterpret_cast<const char*>(garbage.data()),
              static_cast<std::streamsize>(garbage.size()));
  }
  SegmentStore s2(tmp.path());
  EXPECT_EQ(s2.live_pages(), 2u);
  EXPECT_EQ((*s2.get({0, 0}))[0], 1);
  EXPECT_EQ((*s2.get({0, 4096}))[0], 2);
  // The garbage was cut off and appends continue from the intact tail.
  EXPECT_EQ(fs::file_size(head), intact);
  ASSERT_TRUE(s2.put({0, 8192}, page(3)).ok());
  ASSERT_TRUE(s2.commit(/*sync=*/false).ok());
  SegmentStore s3(tmp.path());
  EXPECT_EQ(s3.live_pages(), 3u);
}

TEST(SegmentStore, TornRecordLosesOnlyTheTail) {
  TempDir tmp;
  {
    SegmentStore s(tmp.path());
    ASSERT_TRUE(s.put({0, 0}, page(1)).ok());
    ASSERT_TRUE(s.put({0, 4096}, page(2)).ok());
    ASSERT_TRUE(s.put({0, 8192}, page(3)).ok());
  }
  // Cut the last record short, as a crash mid-write(2) would.
  const fs::path head = head_segment(tmp.path());
  fs::resize_file(head, fs::file_size(head) - 100);
  SegmentStore s2(tmp.path());
  EXPECT_EQ(s2.live_pages(), 2u);
  EXPECT_TRUE(s2.contains({0, 0}));
  EXPECT_TRUE(s2.contains({0, 4096}));
  EXPECT_FALSE(s2.contains({0, 8192}));
}

TEST(SegmentStore, FailedWriteSealsTheHead) {
  // A forked child appends one page, then hits the file-size limit
  // part-way through the next append's write(2). That append must fail
  // without indexing the page, and the next one must go to a fresh
  // segment at a known offset. The store it leaves reopens with the first
  // and third page, the torn bytes cut off.
  TempDir tmp;
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    SegmentStore s(tmp.path());
    if (!s.put({0, 0}, page(1)).ok()) ::_exit(2);
    // The first record is 4125 bytes; a 6000-byte limit cuts the second.
    std::signal(SIGXFSZ, SIG_IGN);
    rlimit lim{};
    ::getrlimit(RLIMIT_FSIZE, &lim);
    lim.rlim_cur = 6000;
    if (::setrlimit(RLIMIT_FSIZE, &lim) != 0) ::_exit(3);
    if (s.put({0, 4096}, page(2)).ok()) ::_exit(4);
    if (s.contains({0, 4096})) ::_exit(5);
    if (!s.put({0, 8192}, page(3)).ok()) ::_exit(6);
    const auto got = s.get({0, 8192});
    if (!got || *got != page(3) || s.stats().segments != 2) ::_exit(7);
    ::_exit(0);  // no destructor runs
  }
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  ASSERT_EQ(WEXITSTATUS(status), 0);

  SegmentStore s(tmp.path());
  EXPECT_EQ(s.stats().segments, 2u);
  EXPECT_EQ(s.live_pages(), 2u);
  EXPECT_FALSE(s.contains({0, 4096}));
  EXPECT_EQ(*s.get({0, 0}), page(1));
  EXPECT_EQ(*s.get({0, 8192}), page(3));
}

TEST(SegmentStore, GroupCommitTracksPendingBatch) {
  TempDir tmp;
  SegmentStore s(tmp.path());
  EXPECT_EQ(s.pending_pages(), 0u);
  ASSERT_TRUE(s.put({0, 0}, page(1)).ok());
  ASSERT_TRUE(s.put({0, 4096}, page(2)).ok());
  EXPECT_EQ(s.pending_pages(), 2u);
  EXPECT_GT(s.pending_bytes(), 2u * 4096);  // payload + record headers
  ASSERT_TRUE(s.commit(/*sync=*/true).ok());
  EXPECT_EQ(s.pending_pages(), 0u);
  EXPECT_EQ(s.pending_bytes(), 0u);
  ASSERT_TRUE(s.commit(/*sync=*/true).ok());  // empty commit is a no-op
}

TEST(SegmentStore, PutBatchAppendsAll) {
  TempDir tmp;
  SegmentStore s(tmp.path());
  std::vector<PageWrite> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back({{0, static_cast<std::uint64_t>(i) * 4096}, page(i)});
  }
  ASSERT_TRUE(s.put_batch(std::move(batch)).ok());
  EXPECT_EQ(s.live_pages(), 8u);
  EXPECT_EQ(s.pending_pages(), 8u);
}

TEST(SegmentStore, CompactionRewritesColdSegments) {
  TempDir tmp;
  SegmentConfig cfg;
  cfg.segment_bytes = 16 << 10;
  SegmentStore s(tmp.path(), cfg);
  // Overwrite the same 4 pages over and over: old segments end up almost
  // entirely dead.
  for (int round = 0; round < 16; ++round) {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(
          s.put({0, static_cast<std::uint64_t>(i) * 4096}, page(round)).ok());
    }
  }
  const auto before = s.stats();
  ASSERT_GT(before.segments, 2u);
  ASSERT_GT(before.dead_bytes, before.live_bytes);
  const std::size_t rewritten = s.compact(0, /*sync=*/false);
  const auto after = s.stats();
  EXPECT_LT(after.segments, before.segments);
  EXPECT_LT(after.dead_bytes, before.dead_bytes);
  EXPECT_LE(rewritten, 4u * before.segments);
  // Data survives compaction (and a reopen after it).
  EXPECT_EQ(s.live_pages(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*s.get({0, static_cast<std::uint64_t>(i) * 4096}))[0], 15);
  }
  SegmentStore s2(tmp.path(), cfg);
  EXPECT_EQ(s2.live_pages(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*s2.get({0, static_cast<std::uint64_t>(i) * 4096}))[0], 15);
  }
}

TEST(SegmentStore, BudgetedCompactionReclaimsAColdSegmentLargerThanTheBudget) {
  TempDir tmp;
  SegmentConfig cfg;
  cfg.segment_bytes = 64 << 10;  // 16 page records, then the head rotates
  SegmentStore s(tmp.path(), cfg);
  const auto at = [](int i) {
    return GlobalAddress{0, static_cast<std::uint64_t>(i) * 4096};
  };
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(s.put(at(i), page(1)).ok());
  // Overwriting 9 of the 16 pages rotates to a new head and leaves the
  // first segment cold with 7 live pages.
  for (int i = 7; i < 16; ++i) ASSERT_TRUE(s.put(at(i), page(2)).ok());
  ASSERT_EQ(s.stats().segments, 2u);
  ASSERT_EQ(s.stats().dead_bytes, 9u * 4096);
  // A budget of 4 is smaller than the segment's live set, but the pass
  // still takes its first cold segment whole.
  EXPECT_EQ(s.compact(4, /*sync=*/false), 7u);
  EXPECT_EQ(s.stats().segments, 1u);
  EXPECT_EQ(s.stats().dead_bytes, 0u);
  SegmentStore reopened(tmp.path(), cfg);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ((*reopened.get(at(i)))[0], i < 7 ? 1 : 2) << i;
  }
}

TEST(SegmentStore, ScanIsSortedAndLiveOnly) {
  TempDir tmp;
  SegmentStore s(tmp.path());
  ASSERT_TRUE(s.put({1, 0}, page(0)).ok());
  ASSERT_TRUE(s.put({0, 4096}, page(0)).ok());
  ASSERT_TRUE(s.put({0, 0}, page(0)).ok());
  EXPECT_TRUE(s.erase({0, 4096}));
  const auto pages = s.scan();
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[0], GlobalAddress(0, 0));
  EXPECT_EQ(pages[1], GlobalAddress(1, 0));
}

// ---------------------------------------------------------------------------
// DiskStore
// ---------------------------------------------------------------------------

TEST(DiskStore, PutGetEraseRoundTrip) {
  TempDir tmp;
  DiskStore d(tmp.path());
  EXPECT_TRUE(d.put({1, 4096}, page(7)).ok());
  auto got = d.get({1, 4096});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)[0], 7);
  EXPECT_TRUE(d.erase({1, 4096}));
  EXPECT_FALSE(d.get({1, 4096}).has_value());
}

TEST(DiskStore, SurvivesReopen) {
  TempDir tmp;
  {
    DiskStore d(tmp.path());
    ASSERT_TRUE(d.put({0, 0}, page(3)).ok());
    ASSERT_TRUE(d.put({0, 4096}, page(4)).ok());
  }
  DiskStore d2(tmp.path());
  EXPECT_EQ(d2.size(), 2u);
  auto got = d2.get({0, 4096});
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ((*got)[0], 4);
}

TEST(DiskStore, ScanReturnsSortedAddresses) {
  TempDir tmp;
  DiskStore d(tmp.path());
  ASSERT_TRUE(d.put({0, 8192}, page(0)).ok());
  ASSERT_TRUE(d.put({0, 0}, page(0)).ok());
  ASSERT_TRUE(d.put({1, 0}, page(0)).ok());
  const auto pages = d.scan();
  ASSERT_EQ(pages.size(), 3u);
  EXPECT_EQ(pages[0], GlobalAddress(0, 0));
  EXPECT_EQ(pages[1], GlobalAddress(0, 8192));
  EXPECT_EQ(pages[2], GlobalAddress(1, 0));
}

TEST(DiskStore, CapacityEnforced) {
  TempDir tmp;
  DiskStore d(tmp.path(), 2);
  EXPECT_TRUE(d.put({0, 0}, page(0)).ok());
  EXPECT_TRUE(d.put({0, 4096}, page(0)).ok());
  EXPECT_EQ(d.put({0, 8192}, page(0)).error(), ErrorCode::kNoSpace);
  // Overwrites of resident pages are always allowed.
  EXPECT_TRUE(d.put({0, 0}, page(9)).ok());
}

TEST(DiskStore, MetaBlobsRoundTripAndPersist) {
  TempDir tmp;
  {
    DiskStore d(tmp.path());
    ASSERT_TRUE(d.put_meta("state", Bytes{1, 2, 3}).ok());
  }
  DiskStore d2(tmp.path());
  auto got = d2.get_meta("state");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, (Bytes{1, 2, 3}));
  EXPECT_FALSE(d2.get_meta("missing").has_value());
}

TEST(DiskStore, MetaIsNotAPage) {
  TempDir tmp;
  DiskStore d(tmp.path());
  ASSERT_TRUE(d.put_meta("state", Bytes{1}).ok());
  EXPECT_TRUE(d.scan().empty());
  EXPECT_EQ(d.size(), 0u);
}

TEST(DiskStore, JournalNeverNamesAPageItsSegmentsLack) {
  // A killed process runs no destructor and no commit: whatever a second
  // open of the root finds is what a kill leaves. A journal record written
  // after its page must never reach the file without the page's bytes.
  TempDir tmp;
  const Bytes v = page(0x5C);
  const GlobalAddress p{3, 8192};
  DiskStore d(tmp.path());
  ASSERT_TRUE(d.put(p, v).ok());
  ASSERT_TRUE(d.journal().append(Bytes{4, 2}).ok());

  DiskStore reopened(tmp.path());
  std::vector<Bytes> records;
  EXPECT_EQ(
      reopened.journal().replay([&](const Bytes& r) { records.push_back(r); }),
      1u);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0], (Bytes{4, 2}));
  const auto got = reopened.get(p);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, v);
}

TEST(DiskStore, MaybeCommitInlineWithoutGroupCommit) {
  TempDir tmp;
  DiskStore d(tmp.path());
  d.set_sync_on_commit(true);  // per-write fdatasync baseline
  ASSERT_TRUE(d.put({0, 0}, page(1)).ok());
  ASSERT_TRUE(d.maybe_commit().ok());
  EXPECT_EQ(d.segments().pending_bytes(), 0u);
}

// ---------------------------------------------------------------------------
// StorageHierarchy
// ---------------------------------------------------------------------------

TEST(Hierarchy, RamHitThenDiskHitThenMiss) {
  TempDir tmp;
  StorageHierarchy h(1, std::make_unique<DiskStore>(tmp.path()));
  h.put({0, 0}, page(1));
  h.put({0, 4096}, page(2));  // evicts {0,0} to disk (capacity 1)
  EXPECT_EQ(h.probe({0, 4096}), HitLevel::kRam);
  EXPECT_EQ(h.probe({0, 0}), HitLevel::kDisk);
  EXPECT_EQ(h.probe({0, 8192}), HitLevel::kMiss);
  EXPECT_EQ(h.stats().ram_to_disk, 1u);

  // A get() promotes the disk page back to RAM (demoting the other).
  ASSERT_NE(h.get({0, 0}), nullptr);
  EXPECT_EQ(h.stats().disk_hits, 1u);
  EXPECT_EQ(h.probe({0, 0}), HitLevel::kRam);
}

TEST(Hierarchy, DisklessEvictionConsultsHook) {
  std::vector<GlobalAddress> evicted;
  StorageHierarchy h(2, nullptr);
  h.set_evict_hook([&](const GlobalAddress& a, const Bytes&) {
    evicted.push_back(a);
    return true;
  });
  h.put({0, 0}, page(0));
  h.put({0, 4096}, page(1));
  h.put({0, 8192}, page(2));
  EXPECT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], GlobalAddress(0, 0));
  EXPECT_FALSE(h.contains({0, 0}));
}

TEST(Hierarchy, VetoedEvictionKeepsPage) {
  StorageHierarchy h(1, nullptr);
  h.set_evict_hook([](const GlobalAddress&, const Bytes&) { return false; });
  h.put({0, 0}, page(0));
  h.put({0, 4096}, page(1));
  // Both pages survive (over capacity) because every drop was vetoed; the
  // hierarchy proposed each resident page once before giving up.
  EXPECT_TRUE(h.contains({0, 0}));
  EXPECT_TRUE(h.contains({0, 4096}));
  EXPECT_GE(h.stats().eviction_vetoes, 1u);
}

TEST(Hierarchy, PinnedPagesSurviveCapacityPressure) {
  StorageHierarchy h(2, nullptr);
  std::vector<GlobalAddress> evicted;
  h.set_evict_hook([&](const GlobalAddress& a, const Bytes&) {
    evicted.push_back(a);
    return true;
  });
  h.put({0, 0}, page(0));
  h.pin({0, 0});
  h.put({0, 4096}, page(1));
  h.pin({0, 4096});
  // A third page pushes over capacity; only the unpinned newcomer is a
  // candidate, so the pinned pages survive.
  h.put({0, 8192}, page(2));
  EXPECT_TRUE(h.contains({0, 0}));
  EXPECT_TRUE(h.contains({0, 4096}));
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], GlobalAddress(0, 8192));
}

TEST(Hierarchy, DiskFullFallsBackToEviction) {
  TempDir tmp;
  std::vector<GlobalAddress> evicted;
  StorageHierarchy h(1, std::make_unique<DiskStore>(tmp.path(), 1));
  h.set_evict_hook([&](const GlobalAddress& a, const Bytes&) {
    evicted.push_back(a);
    return true;
  });
  h.put({0, 0}, page(0));
  h.put({0, 4096}, page(1));  // {0,0} -> disk
  h.put({0, 8192}, page(2));  // disk full -> {0,4096} dropped via hook
  EXPECT_EQ(h.stats().ram_to_disk, 1u);
  EXPECT_EQ(evicted.size(), 1u);
}

TEST(Hierarchy, FlushWritesThrough) {
  TempDir tmp;
  StorageHierarchy h(8, std::make_unique<DiskStore>(tmp.path()));
  h.put({0, 0}, page(9));
  ASSERT_TRUE(h.flush({0, 0}).ok());
  EXPECT_EQ(h.disk()->get({0, 0}).value()[0], 9);
  EXPECT_EQ(h.flush({0, 4096}).error(), ErrorCode::kNotFound);
}

TEST(Hierarchy, EraseRemovesAllLevels) {
  TempDir tmp;
  StorageHierarchy h(8, std::make_unique<DiskStore>(tmp.path()));
  h.put({0, 0}, page(1));
  ASSERT_TRUE(h.flush({0, 0}).ok());
  h.erase({0, 0});
  EXPECT_EQ(h.probe({0, 0}), HitLevel::kMiss);
}

TEST(Hierarchy, StatsTrackHitsAndMisses) {
  StorageHierarchy h(8, nullptr);
  h.put({0, 0}, page(0));
  (void)h.get({0, 0});
  (void)h.get({0, 4096});
  EXPECT_EQ(h.stats().ram_hits, 1u);
  EXPECT_EQ(h.stats().misses, 1u);
}

// ---------------------------------------------------------------------------
// PageDirectory
// ---------------------------------------------------------------------------

TEST(PageDirectory, EnsureCreatesOnce) {
  PageDirectory pd;
  auto& a = pd.ensure({0, 0});
  a.version = 7;
  auto& b = pd.ensure({0, 0});
  EXPECT_EQ(b.version, 7u);
  EXPECT_EQ(pd.size(), 1u);
  EXPECT_EQ(a.addr, GlobalAddress(0, 0));
}

TEST(PageDirectory, FindReturnsNullForMissing) {
  PageDirectory pd;
  EXPECT_EQ(pd.find({0, 0}), nullptr);
  pd.ensure({0, 0});
  EXPECT_NE(pd.find({0, 0}), nullptr);
}

TEST(PageDirectory, HomedSubsetIsFiltered) {
  PageDirectory pd;
  pd.ensure({0, 0}).homed_locally = true;
  pd.ensure({0, 4096});
  pd.ensure({0, 8192}).homed_locally = true;
  const auto homed = pd.homed_pages();
  ASSERT_EQ(homed.size(), 2u);
  EXPECT_EQ(homed[0], GlobalAddress(0, 0));
  EXPECT_EQ(homed[1], GlobalAddress(0, 8192));
}

TEST(PageDirectory, LockedReflectsHolds) {
  PageDirectory pd;
  auto& info = pd.ensure({0, 0});
  EXPECT_FALSE(info.locked());
  info.read_holds = 1;
  EXPECT_TRUE(info.locked());
  info.read_holds = 0;
  info.write_holds = 2;
  EXPECT_TRUE(info.locked());
}

TEST(PageDirectory, PagesSortedDeterministically) {
  PageDirectory pd;
  pd.ensure({1, 0});
  pd.ensure({0, 4096});
  pd.ensure({0, 0});
  const auto pages = pd.pages();
  ASSERT_EQ(pages.size(), 3u);
  EXPECT_EQ(pages[0], GlobalAddress(0, 0));
  EXPECT_EQ(pages[2], GlobalAddress(1, 0));
}

}  // namespace
}  // namespace khz::storage
