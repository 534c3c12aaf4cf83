// KFS filesystem tests (paper, Section 4.1): namespace operations, file
// I/O including indirect blocks, multi-node sharing through Khazana only,
// and per-file attribute control.
#include <gtest/gtest.h>

#include <set>

#include "kfs/fs.h"

namespace khz::kfs {
namespace {

using core::SimClient;
using core::SimWorld;

Bytes blob(std::size_t n, std::uint8_t seed = 1) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  }
  return b;
}

class KfsTest : public ::testing::Test {
 protected:
  KfsTest() : world_({.nodes = 3}), client0_(world_, 0), client1_(world_, 1) {}

  SimWorld world_;
  SimClient client0_;
  SimClient client1_;
};

TEST_F(KfsTest, MkfsAndMount) {
  auto super = FileSystem::mkfs(client0_);
  ASSERT_TRUE(super.ok()) << to_string(super.error());
  auto fs = FileSystem::mount(client0_, super.value());
  ASSERT_TRUE(fs.ok());
  auto entries = fs.value().readdir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_TRUE(entries.value().empty());
}

TEST_F(KfsTest, MountFromAnotherNodeNeedsOnlySuperblockAddress) {
  auto super = FileSystem::mkfs(client0_);
  ASSERT_TRUE(super.ok());
  // "Mounting this filesystem only requires the Khazana address of the
  // superblock."
  auto fs = FileSystem::mount(client1_, super.value());
  ASSERT_TRUE(fs.ok());
  EXPECT_TRUE(fs.value().readdir("/").ok());
}

TEST_F(KfsTest, CreateWriteReadSmallFile) {
  auto super = FileSystem::mkfs(client0_);
  ASSERT_TRUE(super.ok());
  auto fs = FileSystem::mount(client0_, super.value());
  ASSERT_TRUE(fs.ok());

  auto fh = fs.value().create("/hello.txt");
  ASSERT_TRUE(fh.ok());
  const Bytes data = blob(100);
  ASSERT_TRUE(fs.value().write(fh.value(), 0, data).ok());
  auto back = fs.value().read(fh.value(), 0, 100);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
}

TEST_F(KfsTest, ReadBeyondEofTruncates) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  auto fh = fs.value().create("/f");
  ASSERT_TRUE(fs.value().write(fh.value(), 0, blob(10)).ok());
  auto r = fs.value().read(fh.value(), 5, 100);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 5u);
}

TEST_F(KfsTest, SparseFileReadsZeros) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  auto fh = fs.value().create("/sparse");
  // Write at an offset, leaving a hole in block 0..1.
  ASSERT_TRUE(fs.value().write(fh.value(), 3 * kBlockSize, blob(10)).ok());
  auto r = fs.value().read(fh.value(), 0, kBlockSize);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(std::all_of(r.value().begin(), r.value().end(),
                          [](std::uint8_t b) { return b == 0; }));
}

TEST_F(KfsTest, MultiBlockFileCrossBoundaryIo) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  auto fh = fs.value().create("/big");
  const Bytes data = blob(3 * kBlockSize + 500, 9);
  ASSERT_TRUE(fs.value().write(fh.value(), 0, data).ok());
  // Read spanning blocks 1-2.
  auto r = fs.value().read(fh.value(), kBlockSize - 100, 200);
  ASSERT_TRUE(r.ok());
  Bytes expect(data.begin() + kBlockSize - 100,
               data.begin() + kBlockSize + 100);
  EXPECT_EQ(r.value(), expect);
}

TEST_F(KfsTest, IndirectBlocksSupportLargeFiles) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  auto fh = fs.value().create("/huge");
  // Write one block beyond the direct range.
  const std::uint64_t off =
      static_cast<std::uint64_t>(kDirectBlocks + 3) * kBlockSize;
  const Bytes data = blob(1000, 77);
  ASSERT_TRUE(fs.value().write(fh.value(), off, data).ok());
  auto r = fs.value().read(fh.value(), off, 1000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), data);
  auto st = fs.value().stat("/huge");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, off + 1000);
}

TEST_F(KfsTest, FileTooLargeRejected) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  auto fh = fs.value().create("/toobig");
  EXPECT_FALSE(fs.value().write(fh.value(), kMaxFileSize, blob(1)).ok());
}

TEST_F(KfsTest, MkdirAndNestedPaths) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  ASSERT_TRUE(fs.value().mkdir("/a").ok());
  ASSERT_TRUE(fs.value().mkdir("/a/b").ok());
  auto fh = fs.value().create("/a/b/c.txt");
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(fs.value().write(fh.value(), 0, blob(42)).ok());
  auto opened = fs.value().open("/a/b/c.txt");
  ASSERT_TRUE(opened.ok());
  auto r = fs.value().read(opened.value(), 0, 42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), blob(42));
}

TEST_F(KfsTest, CreateDuplicateFails) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  ASSERT_TRUE(fs.value().create("/x").ok());
  auto dup = fs.value().create("/x");
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.error(), ErrorCode::kExists);
}

TEST_F(KfsTest, OpenMissingFails) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  auto r = fs.value().open("/nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error(), ErrorCode::kNotFound);
}

TEST_F(KfsTest, UnlinkRemovesAndFreesRegions) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  auto fh = fs.value().create("/gone");
  ASSERT_TRUE(fs.value().write(fh.value(), 0, blob(2 * kBlockSize)).ok());
  ASSERT_TRUE(fs.value().unlink("/gone").ok());
  EXPECT_FALSE(fs.value().open("/gone").ok());
  EXPECT_TRUE(fs.value().readdir("/").value().empty());
}

TEST_F(KfsTest, UnlinkNonEmptyDirectoryFails) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  ASSERT_TRUE(fs.value().mkdir("/d").ok());
  ASSERT_TRUE(fs.value().create("/d/f").ok());
  EXPECT_FALSE(fs.value().unlink("/d").ok());
  ASSERT_TRUE(fs.value().unlink("/d/f").ok());
  EXPECT_TRUE(fs.value().unlink("/d").ok());
}

TEST_F(KfsTest, TruncateShrinksAndFreesBlocks) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  auto fh = fs.value().create("/t");
  ASSERT_TRUE(fs.value().write(fh.value(), 0, blob(3 * kBlockSize)).ok());
  ASSERT_TRUE(fs.value().truncate(fh.value(), 100).ok());
  auto st = fs.value().stat("/t");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().size, 100u);
  auto r = fs.value().read(fh.value(), 0, 1000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().size(), 100u);
}

TEST_F(KfsTest, TwoNodesShareStateOnlyThroughKhazana) {
  // "The same filesystem can be run on a stand-alone machine or in a
  // distributed environment without the system being aware of the change
  // in environment."
  auto super = FileSystem::mkfs(client0_);
  auto fs0 = FileSystem::mount(client0_, super.value());
  auto fs1 = FileSystem::mount(client1_, super.value());
  ASSERT_TRUE(fs0.ok());
  ASSERT_TRUE(fs1.ok());

  auto fh = fs0.value().create("/shared.txt");
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(fs0.value().write(fh.value(), 0, blob(5000, 3)).ok());

  // Node 1 sees the file and its contents with no direct interaction with
  // node 0's filesystem instance.
  auto fh1 = fs1.value().open("/shared.txt");
  ASSERT_TRUE(fh1.ok());
  auto r = fs1.value().read(fh1.value(), 0, 5000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), blob(5000, 3));

  // And writes flow the other way too.
  ASSERT_TRUE(fs1.value().write(fh1.value(), 0, blob(100, 9)).ok());
  auto r0 = fs0.value().read(fh.value(), 0, 100);
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(r0.value(), blob(100, 9));
}

TEST_F(KfsTest, ConcurrentCreatesFromTwoNodesBothSurvive) {
  auto super = FileSystem::mkfs(client0_);
  auto fs0 = FileSystem::mount(client0_, super.value());
  auto fs1 = FileSystem::mount(client1_, super.value());
  ASSERT_TRUE(fs0.value().create("/from0").ok());
  ASSERT_TRUE(fs1.value().create("/from1").ok());
  auto entries = fs0.value().readdir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), 2u);
}

TEST_F(KfsTest, PerFileAttributesReachTheRegionLayer) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  FileOptions opts;
  opts.attrs.min_replicas = 2;
  auto fh = fs.value().create("/replicated", opts);
  ASSERT_TRUE(fh.ok());
  auto st = fs.value().stat("/replicated");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st.value().attrs.min_replicas, 2u);
}

TEST_F(KfsTest, PathValidation) {
  EXPECT_FALSE(split_path("").ok());
  EXPECT_FALSE(split_path("relative").ok());
  EXPECT_FALSE(split_path("/a/../b").ok());
  EXPECT_TRUE(split_path("/").ok());
  EXPECT_TRUE(split_path("/").value().empty());
  auto p = split_path("//a///b/");
  ASSERT_TRUE(p.ok());
  EXPECT_EQ(p.value(), (std::vector<std::string>{"a", "b"}));
  EXPECT_FALSE(split_path("/" + std::string(300, 'x')).ok());
}

TEST_F(KfsTest, StatReportsTypeAndSize) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  ASSERT_TRUE(fs.value().mkdir("/d").ok());
  auto fh = fs.value().create("/f");
  ASSERT_TRUE(fs.value().write(fh.value(), 0, blob(123)).ok());
  auto sd = fs.value().stat("/d");
  ASSERT_TRUE(sd.ok());
  EXPECT_EQ(sd.value().type, FileType::kDirectory);
  auto sf = fs.value().stat("/f");
  ASSERT_TRUE(sf.ok());
  EXPECT_EQ(sf.value().type, FileType::kFile);
  EXPECT_EQ(sf.value().size, 123u);
}

TEST_F(KfsTest, ContiguousLayoutRoundTrip) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  FileOptions opts;
  opts.layout = FileLayout::kContiguous;
  opts.contiguous_capacity = 64 * 1024;
  auto fh = fs.value().create("/contig", opts);
  ASSERT_TRUE(fh.ok());
  const Bytes data = blob(3 * kBlockSize + 100, 7);
  ASSERT_TRUE(fs.value().write(fh.value(), 0, data).ok());
  auto back = fs.value().read(fh.value(), 0, data.size());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), data);
  // Cross-boundary partial read.
  auto part = fs.value().read(fh.value(), kBlockSize - 50, 100);
  ASSERT_TRUE(part.ok());
  EXPECT_EQ(part.value(),
            Bytes(data.begin() + kBlockSize - 50,
                  data.begin() + kBlockSize + 50));
}

TEST_F(KfsTest, ContiguousFileSharedAcrossNodes) {
  auto super = FileSystem::mkfs(client0_);
  auto fs0 = FileSystem::mount(client0_, super.value());
  auto fs1 = FileSystem::mount(client1_, super.value());
  FileOptions opts;
  opts.layout = FileLayout::kContiguous;
  auto fh = fs0.value().create("/c", opts);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(fs0.value().write(fh.value(), 0, blob(10000, 3)).ok());
  auto fh1 = fs1.value().open("/c");
  ASSERT_TRUE(fh1.ok());
  auto r = fs1.value().read(fh1.value(), 0, 10000);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), blob(10000, 3));
}

TEST_F(KfsTest, ContiguousCapacityIsEnforced) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  FileOptions opts;
  opts.layout = FileLayout::kContiguous;
  opts.contiguous_capacity = 8192;
  auto fh = fs.value().create("/small", opts);
  ASSERT_TRUE(fh.ok());
  EXPECT_TRUE(fs.value().write(fh.value(), 0, blob(8192)).ok());
  EXPECT_EQ(fs.value().write(fh.value(), 8192, blob(1)).error(),
            ErrorCode::kNoSpace);
}

TEST_F(KfsTest, ContiguousUnlinkReleasesTheDataRegion) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  FileOptions opts;
  opts.layout = FileLayout::kContiguous;
  auto fh = fs.value().create("/gone", opts);
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(fs.value().write(fh.value(), 0, blob(5000)).ok());
  ASSERT_TRUE(fs.value().unlink("/gone").ok());
  EXPECT_FALSE(fs.value().open("/gone").ok());
}

TEST_F(KfsTest, ContiguousUsesFewerLockOperations) {
  // The layout trade-off the paper sketches: one region = one lock per
  // I/O, vs one lock per touched block region.
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  FileOptions contig;
  contig.layout = FileLayout::kContiguous;
  auto cf = fs.value().create("/c", contig);
  auto bf = fs.value().create("/b");
  ASSERT_TRUE(cf.ok());
  ASSERT_TRUE(bf.ok());
  const Bytes data = blob(8 * kBlockSize);

  const obs::Counter& granted =
      world_.node(0).metrics().counter("node.locks_granted");
  const auto locks_before_c = granted.value();
  ASSERT_TRUE(fs.value().write(cf.value(), 0, data).ok());
  const auto contig_locks = granted.value() - locks_before_c;

  const auto locks_before_b = granted.value();
  ASSERT_TRUE(fs.value().write(bf.value(), 0, data).ok());
  const auto block_locks = granted.value() - locks_before_b;

  EXPECT_LT(contig_locks, block_locks);
}

TEST_F(KfsTest, RenameWithinDirectory) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  auto fh = fs.value().create("/old");
  ASSERT_TRUE(fs.value().write(fh.value(), 0, blob(10)).ok());
  ASSERT_TRUE(fs.value().rename("/old", "/new").ok());
  EXPECT_FALSE(fs.value().open("/old").ok());
  auto nh = fs.value().open("/new");
  ASSERT_TRUE(nh.ok());
  EXPECT_EQ(nh.value().inode, fh.value().inode);  // identity preserved
  EXPECT_EQ(fs.value().read(nh.value(), 0, 10).value(), blob(10));
}

TEST_F(KfsTest, RenameAcrossDirectories) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  ASSERT_TRUE(fs.value().mkdir("/a").ok());
  ASSERT_TRUE(fs.value().mkdir("/b").ok());
  auto fh = fs.value().create("/a/f");
  ASSERT_TRUE(fs.value().write(fh.value(), 0, blob(20, 5)).ok());
  ASSERT_TRUE(fs.value().rename("/a/f", "/b/g").ok());
  EXPECT_FALSE(fs.value().open("/a/f").ok());
  auto moved = fs.value().open("/b/g");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(fs.value().read(moved.value(), 0, 20).value(), blob(20, 5));
  EXPECT_TRUE(fs.value().readdir("/a").value().empty());
}

TEST_F(KfsTest, RenameDirectoryMovesSubtree) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  ASSERT_TRUE(fs.value().mkdir("/src").ok());
  ASSERT_TRUE(fs.value().create("/src/child").ok());
  ASSERT_TRUE(fs.value().rename("/src", "/dst").ok());
  EXPECT_TRUE(fs.value().open("/dst/child").ok());
  EXPECT_FALSE(fs.value().open("/src/child").ok());
}

TEST_F(KfsTest, RenameErrors) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  ASSERT_TRUE(fs.value().create("/x").ok());
  ASSERT_TRUE(fs.value().create("/y").ok());
  EXPECT_EQ(fs.value().rename("/missing", "/z").error(),
            ErrorCode::kNotFound);
  EXPECT_EQ(fs.value().rename("/x", "/y").error(), ErrorCode::kExists);
  // Moving a directory into itself is refused.
  ASSERT_TRUE(fs.value().mkdir("/d").ok());
  EXPECT_EQ(fs.value().rename("/d", "/d/sub").error(),
            ErrorCode::kBadArgument);
}

TEST_F(KfsTest, RenameVisibleFromOtherNodes) {
  auto super = FileSystem::mkfs(client0_);
  auto fs0 = FileSystem::mount(client0_, super.value());
  auto fs1 = FileSystem::mount(client1_, super.value());
  auto fh = fs0.value().create("/before");
  ASSERT_TRUE(fs0.value().write(fh.value(), 0, blob(8, 9)).ok());
  ASSERT_TRUE(fs1.value().rename("/before", "/after").ok());
  EXPECT_FALSE(fs0.value().open("/before").ok());
  auto moved = fs0.value().open("/after");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(fs0.value().read(moved.value(), 0, 8).value(), blob(8, 9));
}

TEST_F(KfsTest, FsckCleanOnHealthyTree) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  ASSERT_TRUE(fs.value().mkdir("/d").ok());
  auto f1 = fs.value().create("/d/a");
  ASSERT_TRUE(fs.value().write(f1.value(), 0, blob(3 * kBlockSize)).ok());
  FileOptions contig;
  contig.layout = FileLayout::kContiguous;
  auto f2 = fs.value().create("/c", contig);
  ASSERT_TRUE(fs.value().write(f2.value(), 0, blob(5000)).ok());

  auto report = fs.value().fsck();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().clean())
      << (report.value().errors.empty() ? "" : report.value().errors[0]);
  EXPECT_EQ(report.value().directories, 2u);  // root + /d
  EXPECT_EQ(report.value().files, 2u);
  EXPECT_EQ(report.value().bytes, 3u * kBlockSize + 5000u);
  EXPECT_GE(report.value().blocks, 5u);
}

TEST_F(KfsTest, FsckDetectsCorruptInode) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  auto fh = fs.value().create("/victim");
  ASSERT_TRUE(fh.ok());
  // Corrupt the inode image directly through the Khazana API.
  ASSERT_TRUE(
      world_.put(0, {fh.value().inode, 8}, blob(8, 0xFF)).ok());
  auto report = fs.value().fsck();
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report.value().clean());
}

TEST_F(KfsTest, FsckRunsFromAnyNode) {
  auto super = FileSystem::mkfs(client0_);
  auto fs0 = FileSystem::mount(client0_, super.value());
  ASSERT_TRUE(fs0.value().create("/x").ok());
  auto fs1 = FileSystem::mount(client1_, super.value());
  auto report = fs1.value().fsck();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().clean());
  EXPECT_EQ(report.value().files, 1u);
}

TEST_F(KfsTest, ManyFilesInOneDirectorySpanMultipleBlocks) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  // Enough entries to push the directory contents past one block.
  const int kFiles = 150;
  for (int i = 0; i < kFiles; ++i) {
    ASSERT_TRUE(
        fs.value().create("/file_number_" + std::to_string(i)).ok())
        << i;
  }
  auto entries = fs.value().readdir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries.value().size(), static_cast<std::size_t>(kFiles));
}

TEST_F(KfsTest, TruncateRefusesSizesPastTheLayoutMaximum) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  auto fh = fs.value().create("/big");
  ASSERT_TRUE(fh.ok());
  EXPECT_EQ(fs.value().truncate(fh.value(), UINT64_MAX - 10).error(),
            ErrorCode::kNoSpace);
  EXPECT_EQ(fs.value().truncate(fh.value(), kMaxFileSize + 1).error(),
            ErrorCode::kNoSpace);
  // Exactly at the limit is a legal sparse file that reads as zeros.
  ASSERT_TRUE(fs.value().truncate(fh.value(), kMaxFileSize).ok());
  auto all = fs.value().read(fh.value(), 0, UINT64_MAX);
  ASSERT_TRUE(all.ok()) << to_string(all.error());
  EXPECT_EQ(all.value(), Bytes(kMaxFileSize, 0));

  FileOptions contig;
  contig.layout = FileLayout::kContiguous;
  contig.contiguous_capacity = 8192;
  auto ch = fs.value().create("/c", contig);
  ASSERT_TRUE(ch.ok());
  EXPECT_EQ(fs.value().truncate(ch.value(), 8193).error(),
            ErrorCode::kNoSpace);
  EXPECT_TRUE(fs.value().truncate(ch.value(), 8192).ok());

  auto report = fs.value().fsck();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().clean()) << report.value().errors.front();
}

TEST_F(KfsTest, WritesEndingPastTheLayoutMaximumAreNoSpace) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  auto fh = fs.value().create("/f");
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(fs.value().write(fh.value(), 0, blob(100)).ok());
  // offset + size wraps past 2^64 for the first two.
  EXPECT_EQ(fs.value().write(fh.value(), UINT64_MAX - 2, blob(10)).error(),
            ErrorCode::kNoSpace);
  EXPECT_EQ(fs.value().write(fh.value(), UINT64_MAX, blob(1)).error(),
            ErrorCode::kNoSpace);
  EXPECT_EQ(fs.value().write(fh.value(), kMaxFileSize - 5, blob(10)).error(),
            ErrorCode::kNoSpace);

  FileOptions contig;
  contig.layout = FileLayout::kContiguous;
  contig.contiguous_capacity = 8192;
  auto ch = fs.value().create("/c", contig);
  ASSERT_TRUE(ch.ok());
  EXPECT_EQ(fs.value().write(ch.value(), UINT64_MAX - 2, blob(10)).error(),
            ErrorCode::kNoSpace);

  EXPECT_EQ(fs.value().stat("/f").value().size, 100u);
  EXPECT_EQ(fs.value().stat("/c").value().size, 0u);
  auto report = fs.value().fsck();
  ASSERT_TRUE(report.ok());
  EXPECT_TRUE(report.value().clean());
}

TEST_F(KfsTest, FsckReportsSizePastTheLayoutMaximum) {
  auto super = FileSystem::mkfs(client0_);
  auto fs = FileSystem::mount(client0_, super.value());
  auto fh = fs.value().create("/victim");
  ASSERT_TRUE(fh.ok());
  ASSERT_TRUE(fs.value().write(fh.value(), 0, blob(5000)).ok());
  // The inode image holds the size as a little-endian u64 after the
  // magic, type and layout bytes; set it far past kMaxFileSize.
  const std::uint64_t huge = UINT64_MAX - 10;
  Bytes le(8);
  for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(huge >> 8 * i);
  ASSERT_TRUE(world_.put(0, {fh.value().inode.plus(6), 8}, le).ok());

  auto report = fs.value().fsck();
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report.value().clean());
  EXPECT_NE(report.value().errors.front().find("exceeds the layout's maximum"),
            std::string::npos)
      << report.value().errors.front();
  // A read of the damaged file is refused, not attempted.
  EXPECT_EQ(fs.value().read(fh.value(), 0, UINT64_MAX).error(),
            ErrorCode::kCorrupt);
}

TEST_F(KfsTest, ReadsLoadTheInodeOnceAndFetchBlocksInOneBatch) {
  auto super = FileSystem::mkfs(client0_);
  auto fs0 = FileSystem::mount(client0_, super.value());
  auto fh = fs0.value().create("/f");
  ASSERT_TRUE(fh.ok());
  const Bytes data = blob(4 * kBlockSize, 3);
  ASSERT_TRUE(fs0.value().write(fh.value(), 0, data).ok());
  // Four more blocks straddling the direct/indirect boundary.
  const std::uint64_t edge = (kDirectBlocks - 2) * std::uint64_t{kBlockSize};
  ASSERT_TRUE(fs0.value().write(fh.value(), edge, data).ok());

  auto fs1 = FileSystem::mount(client1_, super.value());
  ASSERT_TRUE(fs1.ok());
  auto& ranges = world_.node(1).metrics().histogram("op.lock.ranges");
  const auto lock_ops = [&] { return ranges.snapshot().count; };

  // A whole-file read: the inode, then all four blocks in one lock op.
  auto before = lock_ops();
  auto got = fs1.value().read(fh.value(), 0, 4 * kBlockSize);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), data);
  EXPECT_EQ(lock_ops() - before, 2u);
  EXPECT_EQ(ranges.snapshot().max, 4u);

  // Read again: still the inode, then the blocks. File data never shares
  // a batch with its inode (docs/api.md, "KFS limitations").
  before = lock_ops();
  got = fs1.value().read(fh.value(), 0, 4 * kBlockSize);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), data);
  EXPECT_EQ(lock_ops() - before, 2u);

  // Past the direct blocks on a fresh mount: the indirect table is read
  // once, not once per block. Warm, the cached table rides with the
  // inode.
  auto fs2 = FileSystem::mount(client1_, super.value());
  ASSERT_TRUE(fs2.ok());
  before = lock_ops();
  got = fs2.value().read(fh.value(), edge, 4 * kBlockSize);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), data);
  EXPECT_EQ(lock_ops() - before, 3u);
  before = lock_ops();
  got = fs2.value().read(fh.value(), edge, 4 * kBlockSize);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), data);
  EXPECT_EQ(lock_ops() - before, 2u);

  // Listing a directory loads its inode once: cold, the inode and then
  // the inode with its entries; warm, one lock op.
  before = lock_ops();
  ASSERT_TRUE(fs2.value().readdir("/").ok());
  EXPECT_EQ(lock_ops() - before, 2u);
  before = lock_ops();
  ASSERT_TRUE(fs2.value().readdir("/").ok());
  EXPECT_EQ(lock_ops() - before, 1u);
}

TEST_F(KfsTest, WarmLookupsAreOneLockOpAndColdOnesOnePerLevel) {
  auto super = FileSystem::mkfs(client0_);
  auto fs0 = FileSystem::mount(client0_, super.value());
  ASSERT_TRUE(fs0.value().mkdir("/d").ok());
  auto fh = fs0.value().create("/d/f");
  ASSERT_TRUE(fh.ok());
  const Bytes data = blob(2 * kBlockSize + 10, 5);
  ASSERT_TRUE(fs0.value().write(fh.value(), 0, data).ok());

  auto& ranges = world_.node(1).metrics().histogram("op.lock.ranges");
  const auto lock_ops = [&] { return ranges.snapshot().count; };
  const auto cost = [&](auto&& op) {
    const auto before = lock_ops();
    op();
    return lock_ops() - before;
  };
  auto fs1 = FileSystem::mount(client1_, super.value());
  ASSERT_TRUE(fs1.ok());
  FileSystem& fs = fs1.value();

  // Cold, a descent costs what an uncached one does: each level's inode,
  // then its contents.
  EXPECT_EQ(cost([&] { ASSERT_TRUE(fs.open("/d/f").ok()); }), 4u);
  // Warm, the whole descent is one batch.
  EXPECT_EQ(cost([&] { ASSERT_TRUE(fs.open("/d/f").ok()); }), 1u);
  // A read is the inode, then its blocks.
  EXPECT_EQ(cost([&] {
              auto r = fs.read(fh.value(), 0, data.size());
              ASSERT_TRUE(r.ok());
              EXPECT_EQ(r.value(), data);
            }),
            2u);
  // A warm open plus a whole-file read: three lock ops in all, against
  // six for an uncached descent.
  EXPECT_EQ(cost([&] {
              auto h = fs.open("/d/f");
              ASSERT_TRUE(h.ok());
              auto r = fs.read(h.value(), 0, data.size());
              ASSERT_TRUE(r.ok());
              EXPECT_EQ(r.value(), data);
            }),
            3u);
  EXPECT_EQ(cost([&] { ASSERT_TRUE(fs.stat("/d/f").ok()); }), 1u);
  EXPECT_EQ(cost([&] { ASSERT_TRUE(fs.readdir("/d").ok()); }), 1u);

  // Cold stat and readdir on a fresh mount: open's four, then stat's
  // inode; readdir's two levels.
  auto fs2 = FileSystem::mount(client1_, super.value());
  ASSERT_TRUE(fs2.ok());
  EXPECT_EQ(cost([&] {
              auto st = fs2.value().stat("/d/f");
              ASSERT_TRUE(st.ok());
              EXPECT_EQ(st.value().size, data.size());
            }),
            5u);
  auto fs3 = FileSystem::mount(client1_, super.value());
  ASSERT_TRUE(fs3.ok());
  EXPECT_EQ(cost([&] { ASSERT_TRUE(fs3.value().readdir("/d").ok()); }), 4u);
}

TEST_F(KfsTest, DataBelowItsInodeComesInALaterRound) {
  // Node 1 takes its pool chunk first, so its regions sort lowest. /d is
  // made on node 2; node 1 grows it past one block, so that block sorts
  // below /d's inode. A writer holds the inode before the data, so a
  // lookup fetches that block in a round after the one with the inode.
  SimClient client2(world_, 2);
  auto super = FileSystem::mkfs(client1_);
  ASSERT_TRUE(super.ok());
  auto fs2 = FileSystem::mount(client2, super.value());
  ASSERT_TRUE(fs2.value().mkdir("/d").ok());
  ASSERT_TRUE(fs2.value().create("/d/x").ok());
  auto fs1 = FileSystem::mount(client1_, super.value());
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(fs1.value().create("/d/entry_" + std::to_string(i)).ok());
  }
  auto fs0 = FileSystem::mount(client0_, super.value());
  ASSERT_TRUE(fs0.value().open("/d/x").ok());
  auto& ranges = world_.node(0).metrics().histogram("op.lock.ranges");
  const auto before = ranges.snapshot().count;
  ASSERT_TRUE(fs0.value().open("/d/x").ok());
  EXPECT_EQ(ranges.snapshot().count - before, 2u);
}

TEST_F(KfsTest, StaleLookupCacheIsNeverServed) {
  // fs1 caches what it looks up; fs0, on another node, changes it behind
  // fs1's back. After each change fs1 answers what a fresh mount does.
  auto super = FileSystem::mkfs(client0_);
  auto fs0 = FileSystem::mount(client0_, super.value());
  auto fs1 = FileSystem::mount(client1_, super.value());
  FileSystem& writer = fs0.value();
  FileSystem& cached = fs1.value();
  SimClient client2(world_, 2);
  const auto fresh = [&] {
    return FileSystem::mount(client2, super.value()).value();
  };
  const auto names = [](const Result<std::vector<DirEntry>>& list) {
    std::set<std::string> out;
    for (const auto& e : list.value()) out.insert(e.name);
    return out;
  };
  // Looks `path` up through fs1, then checks it against a fresh mount.
  const auto expect_fresh = [&](const std::string& path) {
    FileSystem f = fresh();
    auto want = f.open(path);
    auto got = cached.open(path);
    ASSERT_EQ(got.ok(), want.ok()) << path;
    if (!want.ok()) {
      EXPECT_EQ(got.error(), want.error()) << path;
      return;
    }
    EXPECT_EQ(got.value().inode, want.value().inode) << path;
    EXPECT_EQ(cached.stat(path).value().size, f.stat(path).value().size);
    auto data = cached.read(got.value(), 0, kMaxFileSize);
    ASSERT_TRUE(data.ok()) << path;
    EXPECT_EQ(data.value(), f.read(want.value(), 0, kMaxFileSize).value());
  };
  const auto expect_listing = [&](const std::string& dir) {
    FileSystem f = fresh();
    auto got = cached.readdir(dir);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(names(got), names(f.readdir(dir)));
  };

  ASSERT_TRUE(writer.mkdir("/d").ok());
  auto a = writer.create("/d/a");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(writer.write(a.value(), 0, blob(100, 1)).ok());
  expect_fresh("/d/a");
  expect_listing("/d");

  ASSERT_TRUE(writer.rename("/d/a", "/d/b").ok());
  expect_fresh("/d/a");
  expect_fresh("/d/b");
  expect_listing("/d");
  EXPECT_EQ(cached.open("/d/b").value().inode, a.value().inode);

  ASSERT_TRUE(writer.unlink("/d/b").ok());
  expect_fresh("/d/b");
  expect_listing("/d");
  EXPECT_FALSE(cached.read(a.value(), 0, 100).ok());

  auto b = writer.create("/d/b");
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(writer.write(b.value(), 0, blob(200, 2)).ok());
  expect_fresh("/d/b");
  EXPECT_EQ(cached.open("/d/b").value().inode, b.value().inode);

  // Past one block of entries.
  for (int i = 0; i < 150; ++i) {
    ASSERT_TRUE(writer.create("/d/file_number_" + std::to_string(i)).ok());
  }
  expect_listing("/d");
  expect_fresh("/d/file_number_149");
  expect_fresh("/d/b");

  // A file grows past its cached image's blocks, then shrinks.
  const auto bh = cached.open("/d/b");
  ASSERT_TRUE(bh.ok());
  ASSERT_TRUE(cached.read(bh.value(), 0, kMaxFileSize).ok());
  ASSERT_TRUE(writer.write(b.value(), 0, blob(3 * kBlockSize + 7, 3)).ok());
  expect_fresh("/d/b");
  EXPECT_EQ(cached.read(bh.value(), 0, kMaxFileSize).value(),
            blob(3 * kBlockSize + 7, 3));
  ASSERT_TRUE(writer.truncate(b.value(), 10).ok());
  expect_fresh("/d/b");
  EXPECT_EQ(cached.read(bh.value(), 0, kMaxFileSize).value(),
            Bytes(blob(10, 3)));

  // A directory renamed away and another made in its place.
  ASSERT_TRUE(writer.rename("/d", "/e").ok());
  ASSERT_TRUE(writer.mkdir("/d").ok());
  expect_fresh("/d/b");
  expect_fresh("/e/b");
  expect_listing("/d");
  expect_listing("/e");
  ASSERT_TRUE(cached.fsck().value().clean());
}

TEST_F(KfsTest, MoreFilesThanTheLookupCacheHoldsStillReadRight) {
  // The cache drops entries past its bound; every lookup and read stays
  // right, only slower.
  auto super = FileSystem::mkfs(client0_);
  auto fs0 = FileSystem::mount(client0_, super.value());
  constexpr std::size_t kPerDir = 64;
  const std::size_t files = kLookupCacheEntries + kPerDir;
  const auto path = [&](std::size_t i) {
    return "/d" + std::to_string(i / kPerDir) + "/f" + std::to_string(i);
  };
  for (std::size_t i = 0; i < files; ++i) {
    if (i % kPerDir == 0) {
      ASSERT_TRUE(fs0.value().mkdir("/d" + std::to_string(i / kPerDir)).ok());
    }
    auto fh = fs0.value().create(path(i));
    ASSERT_TRUE(fh.ok()) << i;
    ASSERT_TRUE(
        fs0.value().write(fh.value(), 0, blob(16, static_cast<std::uint8_t>(i)))
            .ok());
  }
  auto fs1 = FileSystem::mount(client1_, super.value());
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < files; ++i) {
      auto fh = fs1.value().open(path(i));
      ASSERT_TRUE(fh.ok()) << i;
      auto r = fs1.value().read(fh.value(), 0, 16);
      ASSERT_TRUE(r.ok()) << i;
      EXPECT_EQ(r.value(), blob(16, static_cast<std::uint8_t>(i))) << i;
    }
  }
}

}  // namespace
}  // namespace khz::kfs
