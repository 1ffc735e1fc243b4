// Crash-injection tests for the Fig. 5 protocols: a process dies at each
// labeled step boundary; the paper's claimed outcome must hold after either
// helper completion (a survivor touching the same line) or full recovery.
#include "common/failpoint.h"
#include "fs_fixture.h"

namespace simurgh::testing {
namespace {

using core::kOpenCreate;
using core::kOpenRead;
using core::kOpenWrite;

class FsCrashTest : public FsTest {
 protected:
  void SetUp() override {
    FsTest::SetUp();
    fs_->set_lease_ns(2'000'000);  // 2 ms: survivors steal quickly
    fsck_on_teardown_ = true;
  }
  void TearDown() override {
    FailPoint::disarm();
    FsTest::TearDown();  // recover + fsck the surviving image
  }

  // Runs `op` expecting the armed fail point to fire.
  template <typename Fn>
  void crash_during(std::string_view point, Fn&& op, int skip = 0) {
    FailPoint::arm(point, skip);
    EXPECT_THROW(op(), CrashedException);
    ASSERT_GE(FailPoint::hits(), 1u) << "fail point never reached: " << point;
  }
};

// ---- create (Fig. 5a) ----

TEST_F(FsCrashTest, CreateCrashBeforePublishLeavesNoFile) {
  // Crash after inode+entry persisted but before the slot publish (step 5):
  // "the file is not created and no crash recovery is needed" — the
  // allocated objects are reclaimed by the metadata allocator (sweep).
  crash_during("dir.insert.before_publish", [&] {
    (void)p().open("/victim", kOpenCreate | kOpenWrite);
  });
  auto survivor = fs_->open_process(1000, 1000);
  EXPECT_EQ(survivor->stat("/victim").code(), Errc::not_found);
  // A survivor can create the same name (the abandoned line lock is
  // lease-stolen).
  EXPECT_TRUE(
      survivor->open("/victim", kOpenCreate | kOpenWrite).is_ok());
}

TEST_F(FsCrashTest, CreateCrashAfterPublishYieldsFileAfterRecovery) {
  // Crash after step 5: the entry is visible but its dirty bits were never
  // cleared (step 6 missing); recovery commits the in-flight create.
  crash_during("dir.insert.after_publish", [&] {
    (void)p().open("/published", kOpenCreate | kOpenWrite);
  });
  auto survivor = fs_->open_process(1000, 1000);
  EXPECT_TRUE(survivor->stat("/published").is_ok());
  remount_after_crash();
  EXPECT_TRUE(p().stat("/published").is_ok());
  // After recovery the objects are committed (no dirty bits linger).
  const auto st = p().stat("/published");
  EXPECT_EQ(fs_->pool(core::kPoolInode).flags_of(st->inode),
            alloc::kObjValid);
}

TEST_F(FsCrashTest, CreateCrashReclaimsOrphanObjectsOnRecovery) {
  crash_during("dir.insert.before_publish", [&] {
    (void)p().open("/orphan", kOpenCreate | kOpenWrite);
  });
  auto report = [&] {
    remount_after_crash();
    // mount() already ran recover() (unclean shutdown); run again to show
    // idempotence and read the report of a clean pass.
    return fs_->recover();
  }();
  EXPECT_EQ(report.reclaimed_objects, 0u);  // second pass finds nothing
  EXPECT_EQ(p().stat("/orphan").code(), Errc::not_found);
}

// ---- delete (Fig. 5b) ----

class FsCrashDeleteTest : public FsCrashTest,
                          public ::testing::WithParamInterface<const char*> {};

TEST_P(FsCrashDeleteTest, SurvivorCompletesInterruptedDelete) {
  // "If the process crashes in between Steps 2 to 5, the next process
  // accessing the same line identifies a null pointer and completes the
  // remaining steps for deletion."
  ASSERT_TRUE(p().open("/doomed", kOpenCreate | kOpenWrite).is_ok());
  crash_during(GetParam(), [&] { (void)p().unlink("/doomed"); });
  auto survivor = fs_->open_process(1000, 1000);
  // The survivor's lookup of the same name finishes the delete.
  EXPECT_EQ(survivor->stat("/doomed").code(), Errc::not_found);
  // And the name is reusable.
  EXPECT_TRUE(survivor->open("/doomed", kOpenCreate | kOpenWrite).is_ok());
}

INSTANTIATE_TEST_SUITE_P(DeleteSteps, FsCrashDeleteTest,
                         ::testing::Values("dir.remove.entry_invalidated",
                                           "dir.remove.entry_zeroed",
                                           "dir.remove.slot_cleared"));

TEST_F(FsCrashTest, DeleteCrashRecoveredByFullRecovery) {
  ASSERT_TRUE(p().open("/doomed2", kOpenCreate | kOpenWrite).is_ok());
  crash_during("dir.remove.entry_invalidated",
               [&] { (void)p().unlink("/doomed2"); });
  remount_after_crash();
  EXPECT_EQ(p().stat("/doomed2").code(), Errc::not_found);
}

// ---- intra-directory rename (Fig. 5c) ----

class FsCrashRenameTest : public FsCrashTest,
                          public ::testing::WithParamInterface<const char*> {};

TEST_P(FsCrashRenameTest, RecoveryYieldsExactlyOneName) {
  ASSERT_TRUE(p().mkdir("/rdir").is_ok());
  auto fd = p().open("/rdir/old", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().write(*fd, "payload", 7).is_ok());
  const auto ino = p().stat("/rdir/old")->inode;
  crash_during(GetParam(), [&] { (void)p().rename("/rdir/old", "/rdir/new"); });
  remount_after_crash();
  const bool has_old = p().stat("/rdir/old").is_ok();
  const bool has_new = p().stat("/rdir/new").is_ok();
  EXPECT_NE(has_old, has_new)
      << "rename must be atomic: exactly one name visible (old=" << has_old
      << " new=" << has_new << ")";
  const auto st = p().stat(has_old ? "/rdir/old" : "/rdir/new");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->inode, ino) << "the inode must survive the rename crash";
  EXPECT_EQ(st->size, 7u);
}

INSTANTIATE_TEST_SUITE_P(RenameSteps, FsCrashRenameTest,
                         ::testing::Values("dir.rename.shadow_created",
                                           "dir.rename.marked",
                                           "dir.rename.line_inconsistent",
                                           "dir.rename.old_entry_freed",
                                           "dir.rename.published"));

// ---- cross-directory rename (§4.3 log entry) ----

class FsCrashXRenameTest : public FsCrashTest,
                           public ::testing::WithParamInterface<const char*> {
};

TEST_P(FsCrashXRenameTest, LogReplayYieldsExactlyOneName) {
  ASSERT_TRUE(p().mkdir("/from").is_ok());
  ASSERT_TRUE(p().mkdir("/to").is_ok());
  auto fd = p().open("/from/item", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().write(*fd, "cargo", 5).is_ok());
  const auto ino = p().stat("/from/item")->inode;
  crash_during(GetParam(),
               [&] { (void)p().rename("/from/item", "/to/item"); });
  remount_after_crash();
  const bool at_src = p().stat("/from/item").is_ok();
  const bool at_dst = p().stat("/to/item").is_ok();
  EXPECT_NE(at_src, at_dst) << "src=" << at_src << " dst=" << at_dst;
  const auto st = p().stat(at_src ? "/from/item" : "/to/item");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->inode, ino);
  EXPECT_EQ(st->size, 5u);
}

TEST_P(FsCrashXRenameTest, LiveRenamerReplaysTheArmedLog) {
  // No remount: the next cross-directory rename out of /from steals the
  // dead renamer's log lock, finds the log still armed and replays it
  // before writing its own record — exactly one name survives.
  ASSERT_TRUE(p().mkdir("/from").is_ok());
  ASSERT_TRUE(p().mkdir("/to").is_ok());
  ASSERT_TRUE(p().open("/from/item", kOpenCreate | kOpenWrite).is_ok());
  ASSERT_TRUE(p().open("/from/next", kOpenCreate | kOpenWrite).is_ok());
  const auto ino = p().stat("/from/item")->inode;
  crash_during(GetParam(),
               [&] { (void)p().rename("/from/item", "/to/item"); });
  auto survivor = fs_->open_process(1000, 1000);
  ASSERT_TRUE(survivor->rename("/from/next", "/to/next").is_ok());
  EXPECT_FALSE(survivor->stat("/from/next").is_ok());
  EXPECT_TRUE(survivor->stat("/to/next").is_ok());
  const bool at_src = survivor->stat("/from/item").is_ok();
  const bool at_dst = survivor->stat("/to/item").is_ok();
  EXPECT_NE(at_src, at_dst) << "src=" << at_src << " dst=" << at_dst;
  const auto st = survivor->stat(at_src ? "/from/item" : "/to/item");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->inode, ino);
}

INSTANTIATE_TEST_SUITE_P(XRenameSteps, FsCrashXRenameTest,
                         ::testing::Values("dir.xrename.log_written",
                                           "dir.xrename.log_armed",
                                           "dir.xrename.dst_published",
                                           "dir.xrename.src_cleared"));

// ---- allocator crash points through the FS ----

TEST_F(FsCrashTest, CrashDuringObjectClaimIsReclaimed) {
  crash_during("objalloc.claimed",
               [&] { (void)p().open("/oc", kOpenCreate | kOpenWrite); });
  remount_after_crash();
  EXPECT_EQ(p().stat("/oc").code(), Errc::not_found);
  EXPECT_TRUE(p().open("/oc", kOpenCreate | kOpenWrite).is_ok());
}

TEST_F(FsCrashTest, CrashDuringInodeDropRecovered) {
  auto fd = p().open("/dropme", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  std::vector<char> data(64 * 1024, 'x');
  ASSERT_TRUE(p().pwrite(*fd, data.data(), data.size(), 0).is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  crash_during("fs.drop_inode.storage_freed",
               [&] { (void)p().unlink("/dropme"); });
  remount_after_crash();
  EXPECT_EQ(p().stat("/dropme").code(), Errc::not_found);
  // All blocks accounted for: everything the file held is free again.
  const auto report = fs_->recover();
  EXPECT_EQ(report.files, 0u);
}

TEST_F(FsCrashTest, CrashDuringWriteKeepsSizeConsistent) {
  // Data is persisted before metadata: a crash after the data fence but
  // before the size update leaves the *old* size — never a size covering
  // unwritten bytes.
  auto fd = p().open("/wcrash", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().pwrite(*fd, "first", 5, 0).is_ok());
  crash_during("fs.write.data_persisted",
               [&] { (void)p().pwrite(*fd, "0123456789", 10, 0); });
  remount_after_crash();
  EXPECT_EQ(p().stat("/wcrash")->size, 5u);
}

TEST_F(FsCrashTest, SurvivorStealsAbandonedLineLock) {
  // The crash leaves the directory line busy; a survivor's create on the
  // same line must steal the lease and proceed (no hang).
  ASSERT_TRUE(p().open("/same", kOpenCreate | kOpenWrite).is_ok());
  crash_during("dir.remove.entry_invalidated",
               [&] { (void)p().unlink("/same"); });
  auto survivor = fs_->open_process(1000, 1000);
  // Same name => same hash line => must wait out the 2 ms lease, repair,
  // then succeed.
  EXPECT_TRUE(survivor->open("/same", kOpenCreate | kOpenWrite).is_ok());
}

}  // namespace
}  // namespace simurgh::testing

namespace simurgh::testing {
namespace {

// ---- block-allocator crash points reached through the FS ----

TEST_F(FsCrashTest, CrashDuringBlockSplitLosesNoSpace) {
  // Die between carving a free range and returning it: the blocks are
  // neither in the free list (range already shrunk) nor reachable from any
  // inode — full recovery's sweep must return them.
  auto fd = p().open("/bs", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  crash_during("blockalloc.split",
               [&] { (void)p().pwrite(*fd, "x", 1, 0); });
  remount_after_crash();
  const std::uint64_t free_after = fs_->blocks().free_blocks();
  // Write the same file again; allocation must succeed and accounting must
  // stay exact across a second recovery.
  auto fd2 = p().open("/bs", kOpenWrite);
  ASSERT_TRUE(fd2.is_ok());
  ASSERT_TRUE(p().pwrite(*fd2, "x", 1, 0).is_ok());
  (void)fs_->recover();
  EXPECT_EQ(fs_->blocks().free_blocks() + 1, free_after);
}

TEST_F(FsCrashTest, CrashDuringChainExtensionIsRecovered) {
  // Force a hash line to overflow into a new chain block and die right
  // after linking it: the half-used chain must be usable (or reclaimed)
  // after recovery.
  ASSERT_TRUE(p().mkdir("/chain").is_ok());
  // Fill one line: find 9 names hashing to the same line (8 slots/line).
  const unsigned want = core::line_of("anchor");
  std::vector<std::string> names{"anchor"};
  for (int i = 0; names.size() < 9; ++i) {
    std::string cand = "x" + std::to_string(i);
    if (core::line_of(cand) == want) names.push_back(cand);
  }
  for (std::size_t i = 0; i + 1 < names.size(); ++i)
    ASSERT_TRUE(
        p().open("/chain/" + names[i], kOpenCreate | kOpenWrite).is_ok());
  crash_during("dir.chain_extended", [&] {
    (void)p().open("/chain/" + names.back(), kOpenCreate | kOpenWrite);
  });
  remount_after_crash();
  // All previously created files survive; the crashed name is absent or
  // present (either is a legal outcome) but creatable.
  for (std::size_t i = 0; i + 1 < names.size(); ++i)
    EXPECT_TRUE(p().stat("/chain/" + names[i]).is_ok()) << names[i];
  (void)p().unlink("/chain/" + names.back());
  EXPECT_TRUE(
      p().open("/chain/" + names.back(), kOpenCreate | kOpenWrite).is_ok());
  EXPECT_EQ(fs_->recover().reclaimed_objects, 0u);
}

TEST_F(FsCrashTest, RepeatedCrashesAtTheSamePointConverge) {
  // Crash the same create step ten times in a row; the namespace and the
  // allocators must stay consistent through every retry.
  fs_->set_lease_ns(1'000'000);
  for (int round = 0; round < 10; ++round) {
    FailPoint::arm("fs.create.entry_persisted");
    EXPECT_THROW((void)p().open("/flappy", kOpenCreate | kOpenWrite),
                 CrashedException);
    FailPoint::disarm();
  }
  remount_after_crash();
  EXPECT_EQ(p().stat("/flappy").code(), Errc::not_found);
  EXPECT_TRUE(p().open("/flappy", kOpenCreate | kOpenWrite).is_ok());
  EXPECT_EQ(fs_->recover().reclaimed_objects, 0u);
}

}  // namespace
}  // namespace simurgh::testing
