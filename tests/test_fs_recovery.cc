// Full-system recovery (§5.5): mark-and-sweep correctness and idempotence.
#include <set>
#include <vector>

#include "common/failpoint.h"
#include "fs_fixture.h"

namespace simurgh::testing {
namespace {

using core::kOpenCreate;
using core::kOpenRead;
using core::kOpenWrite;

class FsRecoveryTest : public FsTest {
 protected:
  void SetUp() override {
    FsTest::SetUp();
    fsck_on_teardown_ = true;  // audit every scenario's final image
  }
};

TEST_F(FsRecoveryTest, CleanMountSkipsNothingAndCountsObjects) {
  ASSERT_TRUE(p().mkdir("/d1").is_ok());
  ASSERT_TRUE(p().mkdir("/d1/d2").is_ok());
  for (int i = 0; i < 20; ++i)
    ASSERT_TRUE(p().open("/d1/f" + std::to_string(i),
                         kOpenCreate | kOpenWrite)
                    .is_ok());
  ASSERT_TRUE(p().symlink("/d1/f0", "/ln").is_ok());
  const auto report = fs_->recover();
  EXPECT_EQ(report.files, 20u);
  EXPECT_EQ(report.directories, 3u);  // root, d1, d2
  EXPECT_EQ(report.symlinks, 1u);
  EXPECT_EQ(report.reclaimed_objects, 0u);
  EXPECT_EQ(report.committed_objects, 0u);
}

TEST_F(FsRecoveryTest, UncleanMountRunsRecoveryAutomatically) {
  ASSERT_TRUE(p().open("/auto", kOpenCreate | kOpenWrite).is_ok());
  // No unmount(): clean_shutdown stays 0 — mount() must recover.
  remount_after_crash();
  EXPECT_TRUE(p().stat("/auto").is_ok());
}

TEST_F(FsRecoveryTest, CleanUnmountSkipsRecovery) {
  ASSERT_TRUE(p().open("/clean", kOpenCreate | kOpenWrite).is_ok());
  fs_->unmount();
  proc_.reset();
  fs_.reset();
  fs_ = core::FileSystem::mount(*nvmm_, *shm_);
  proc_ = fs_->open_process(1000, 1000);
  EXPECT_TRUE(p().stat("/clean").is_ok());
}

TEST_F(FsRecoveryTest, RecoveryIsIdempotent) {
  for (int i = 0; i < 30; ++i)
    ASSERT_TRUE(
        p().open("/f" + std::to_string(i), kOpenCreate | kOpenWrite).is_ok());
  const auto r1 = fs_->recover();
  const auto r2 = fs_->recover();
  EXPECT_EQ(r1.files, r2.files);
  EXPECT_EQ(r2.reclaimed_objects, 0u);
  EXPECT_EQ(r2.committed_objects, 0u);
}

TEST_F(FsRecoveryTest, DataSurvivesRecoveryBitExact) {
  auto fd = p().open("/blob", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  std::vector<char> data(128 * 1024);
  for (std::size_t i = 0; i < data.size(); ++i)
    data[i] = static_cast<char>(i * 2654435761u);
  ASSERT_TRUE(p().pwrite(*fd, data.data(), data.size(), 0).is_ok());
  remount_after_crash();
  auto rfd = p().open("/blob", kOpenRead);
  ASSERT_TRUE(rfd.is_ok());
  std::vector<char> back(data.size());
  ASSERT_TRUE(p().pread(*rfd, back.data(), back.size(), 0).is_ok());
  EXPECT_EQ(data, back);
}

TEST_F(FsRecoveryTest, FreeSpaceIsRestoredExactly) {
  // After deleting everything and recovering, the allocator must expose the
  // same free space as before (no leaked blocks).  Prime the metadata pools
  // first: their segments are allocated lazily and (by design) never
  // returned, so the baseline must be taken after the first create.
  ASSERT_TRUE(p().open("/prime", kOpenCreate | kOpenWrite).is_ok());
  ASSERT_TRUE(p().unlink("/prime").is_ok());
  const std::uint64_t free0 = fs_->blocks().free_blocks();
  for (int i = 0; i < 10; ++i) {
    auto fd = p().open("/tmp" + std::to_string(i), kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    std::vector<char> data(32 * 1024, 'b');
    ASSERT_TRUE(p().pwrite(*fd, data.data(), data.size(), 0).is_ok());
  }
  for (int i = 0; i < 10; ++i)
    ASSERT_TRUE(p().unlink("/tmp" + std::to_string(i)).is_ok());
  remount_after_crash();
  EXPECT_EQ(fs_->blocks().free_blocks(), free0);
}

// Every free block of a quiescent mount: clear in the free map or parked
// in a thread reservation.
std::set<std::uint64_t> free_block_set(core::FileSystem& fs) {
  std::set<std::uint64_t> out;
  auto add = [&](std::uint64_t off, std::uint64_t n) {
    for (std::uint64_t b = 0; b < n; ++b) out.insert(off + b * alloc::kBlockSize);
  };
  fs.blocks().for_each_free_run(
      [&](unsigned, std::uint64_t off, std::uint64_t n) { add(off, n); });
  fs.blocks().for_each_reservation(add);
  return out;
}

// Files of mixed sizes, every other one deleted: a fragmented free map.
void fragment_free_space(core::Process& p) {
  for (int i = 0; i < 40; ++i) {
    auto fd = p.open("/frag" + std::to_string(i), kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    const std::vector<char> data(static_cast<std::size_t>(i % 7 + 1) * 5000,
                                 'f');
    ASSERT_TRUE(p.pwrite(*fd, data.data(), data.size(), 0).is_ok());
    ASSERT_TRUE(p.close(*fd).is_ok());
  }
  for (int i = 0; i < 40; i += 2)
    ASSERT_TRUE(p.unlink("/frag" + std::to_string(i)).is_ok());
}

TEST_F(FsRecoveryTest, CleanRemountLoadsFreeMapSnapshotExactly) {
  // The shm free map dies with the shm device; a clean unmount leaves a
  // snapshot in NVMM, and the next mount must reproduce the exact free set
  // from it without running recovery.
  fragment_free_space(p());
  const std::set<std::uint64_t> before = free_block_set(*fs_);
  ASSERT_FALSE(before.empty());
  fs_->unmount();
  proc_.reset();
  fs_.reset();
  shm_->wipe();
  fs_ = core::FileSystem::mount(*nvmm_, *shm_);
  proc_ = fs_->open_process(1000, 1000);
  EXPECT_EQ(fs_->last_recovery().directories, 0u) << "recovery ran";
  EXPECT_EQ(free_block_set(*fs_), before);
  EXPECT_EQ(fs_->blocks().free_blocks(), before.size());
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
}

TEST_F(FsRecoveryTest, CrashAfterFreeMapSnapshotBeforeCleanFlagRecovers) {
  // The snapshot is durable but the clean flag never landed: the image is
  // unclean, so the next mount ignores the snapshot and recovers fully.
  fragment_free_space(p());
  const std::set<std::uint64_t> before = free_block_set(*fs_);
  FailPoint::arm("unmount.free_map_saved");
  EXPECT_THROW(fs_->unmount(), CrashedException);
  FailPoint::disarm();
  EXPECT_EQ(fs_->sb().clean_shutdown.load(), 0u);
  remount_after_crash();
  EXPECT_GE(fs_->last_recovery().directories, 1u);
  EXPECT_EQ(free_block_set(*fs_), before);
  const core::CheckReport cr = core::check_fs(*fs_);
  EXPECT_TRUE(cr.ok()) << cr.summary();
  EXPECT_TRUE(p().stat("/frag1").is_ok());
  EXPECT_EQ(p().stat("/frag0").code(), Errc::not_found);
}

TEST_F(FsRecoveryTest, DeepTreeSurvives) {
  std::string path;
  for (int d = 0; d < 12; ++d) {
    path += "/d" + std::to_string(d);
    ASSERT_TRUE(p().mkdir(path).is_ok());
  }
  ASSERT_TRUE(p().open(path + "/leaf", kOpenCreate | kOpenWrite).is_ok());
  remount_after_crash();
  EXPECT_TRUE(p().stat(path + "/leaf").is_ok());
  const auto report = fs_->recover();
  EXPECT_EQ(report.directories, 13u);
  EXPECT_EQ(report.files, 1u);
}

TEST_F(FsRecoveryTest, HardLinksCountedOnce) {
  auto fd = p().open("/one", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().write(*fd, "x", 1).is_ok());
  ASSERT_TRUE(p().link("/one", "/two").is_ok());
  ASSERT_TRUE(p().link("/one", "/three").is_ok());
  remount_after_crash();
  const auto report = fs_->recover();
  EXPECT_EQ(report.files, 1u);  // one inode, three names
  EXPECT_EQ(p().stat("/two")->nlink, 3u);
}

TEST_F(FsRecoveryTest, ScalesToThousandsOfFiles) {
  for (int d = 0; d < 10; ++d) {
    const std::string dir = "/dir" + std::to_string(d);
    ASSERT_TRUE(p().mkdir(dir).is_ok());
    for (int i = 0; i < 300; ++i)
      ASSERT_TRUE(
          p().open(dir + "/f" + std::to_string(i), kOpenCreate | kOpenWrite)
              .is_ok());
  }
  remount_after_crash();
  const auto report = fs_->recover();
  EXPECT_EQ(report.files, 3000u);
  EXPECT_EQ(report.directories, 11u);
  EXPECT_LT(report.seconds, 30.0);
  for (int d = 0; d < 10; ++d)
    EXPECT_EQ(p().readdir("/dir" + std::to_string(d))->size(), 300u);
}

TEST_F(FsRecoveryTest, CompactsEmptiedDirectoryChains) {
  // 3000 files overflow the 384 slots of the first hash block, chaining
  // several blocks; after deleting everything, the chain blocks are only
  // reclaimed by the deferred compaction in full recovery (Fig. 5b step 6).
  ASSERT_TRUE(p().mkdir("/fat").is_ok());
  for (int i = 0; i < 3000; ++i)
    ASSERT_TRUE(
        p().open("/fat/f" + std::to_string(i), kOpenCreate | kOpenWrite)
            .is_ok());
  const auto dir_ino = p().stat("/fat")->inode;
  const std::uint64_t grown =
      fs_->dirops().chain_length(*fs_->inode_at(dir_ino));
  EXPECT_GT(grown, 1u);
  for (int i = 0; i < 3000; ++i)
    ASSERT_TRUE(p().unlink("/fat/f" + std::to_string(i)).is_ok());
  EXPECT_EQ(fs_->dirops().chain_length(*fs_->inode_at(dir_ino)), grown)
      << "runtime deletes must not free chain blocks (readers may hold them)";

  const auto report = fs_->recover();
  EXPECT_GE(report.reclaimed_objects, grown - 1);
  EXPECT_EQ(fs_->dirops().chain_length(*fs_->inode_at(dir_ino)), 1u);
  // The directory still works after compaction.
  ASSERT_TRUE(p().open("/fat/again", kOpenCreate | kOpenWrite).is_ok());
  EXPECT_TRUE(p().stat("/fat/again").is_ok());
  // And a second pass has nothing left to do.
  EXPECT_EQ(fs_->recover().reclaimed_objects, 0u);
}

TEST_F(FsRecoveryTest, MidCreateCrashThenRemountCommitsOrReclaims) {
  fs_->set_lease_ns(2'000'000);
  FailPoint::arm("fs.create.entry_persisted");
  EXPECT_THROW((void)p().open("/half", kOpenCreate | kOpenWrite),
               CrashedException);
  FailPoint::disarm();
  remount_after_crash();
  // Entry never published: recovery must reclaim inode + entry objects.
  EXPECT_EQ(p().stat("/half").code(), Errc::not_found);
  const auto report = fs_->recover();
  EXPECT_EQ(report.reclaimed_objects, 0u);  // already handled at mount
}

}  // namespace
}  // namespace simurgh::testing
