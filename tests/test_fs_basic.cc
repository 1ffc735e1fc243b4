// Basic POSIX-level behaviour through the public API.
#include <sys/prctl.h>

#include <string>

#include "fs_fixture.h"

namespace simurgh::testing {
namespace {

using core::kOpenAppend;
using core::kOpenCreate;
using core::kOpenExcl;
using core::kOpenRead;
using core::kOpenTrunc;
using core::kOpenWrite;

TEST_F(FsTest, FormatCreatesEmptyRoot) {
  auto entries = p().readdir("/");
  ASSERT_TRUE(entries.is_ok());
  EXPECT_TRUE(entries->empty());
  auto st = p().stat("/");
  ASSERT_TRUE(st.is_ok());
  EXPECT_TRUE(st->is_dir());
}

TEST_F(FsTest, CreateOpenCloseStat) {
  auto fd = p().open("/a.txt", kOpenCreate | kOpenWrite, 0644);
  ASSERT_TRUE(fd.is_ok());
  EXPECT_TRUE(p().close(*fd).is_ok());
  auto st = p().stat("/a.txt");
  ASSERT_TRUE(st.is_ok());
  EXPECT_FALSE(st->is_dir());
  EXPECT_EQ(st->size, 0u);
  EXPECT_EQ(st->uid, 1000u);
  EXPECT_EQ(st->mode & 0xFFF, 0644u);
  EXPECT_EQ(st->nlink, 1u);
}

TEST_F(FsTest, OpenMissingFails) {
  EXPECT_EQ(p().open("/nothing", kOpenRead).code(), Errc::not_found);
}

TEST_F(FsTest, ExclFailsOnExisting) {
  ASSERT_TRUE(p().open("/x", kOpenCreate | kOpenWrite).is_ok());
  EXPECT_EQ(p().open("/x", kOpenCreate | kOpenExcl | kOpenWrite).code(),
            Errc::exists);
}

TEST_F(FsTest, WriteReadRoundTrip) {
  auto fd = p().open("/data", kOpenCreate | kOpenWrite | kOpenRead);
  ASSERT_TRUE(fd.is_ok());
  const std::string msg = "the quick brown fox";
  ASSERT_EQ(*p().write(*fd, msg.data(), msg.size()), msg.size());
  ASSERT_TRUE(p().lseek(*fd, 0, core::Process::kSeekSet).is_ok());
  char buf[64] = {};
  auto r = p().read(*fd, buf, sizeof buf);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(std::string(buf, *r), msg);
}

TEST_F(FsTest, PreadPwriteAtOffsets) {
  auto fd = p().open("/off", kOpenCreate | kOpenWrite | kOpenRead);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().pwrite(*fd, "AAAA", 4, 0).is_ok());
  ASSERT_TRUE(p().pwrite(*fd, "BB", 2, 10).is_ok());
  char buf[12] = {};
  auto r = p().pread(*fd, buf, 12, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 12u);
  EXPECT_EQ(std::string(buf, 4), "AAAA");
  EXPECT_EQ(std::string(buf + 4, 6), std::string(6, '\0'));  // hole zeros
  EXPECT_EQ(std::string(buf + 10, 2), "BB");
}

TEST_F(FsTest, AppendFlagWritesAtEof) {
  auto fd = p().open("/log", kOpenCreate | kOpenWrite | kOpenAppend);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().write(*fd, "one", 3).is_ok());
  ASSERT_TRUE(p().write(*fd, "two", 3).is_ok());
  auto st = p().stat("/log");
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(st->size, 6u);
  auto rfd = p().open("/log", kOpenRead);
  char buf[8] = {};
  ASSERT_TRUE(p().read(*rfd, buf, 6).is_ok());
  EXPECT_EQ(std::string(buf, 6), "onetwo");
}

TEST_F(FsTest, TruncFlagEmptiesFile) {
  auto fd = p().open("/t", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().write(*fd, "xxxx", 4).is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  auto fd2 = p().open("/t", kOpenWrite | kOpenTrunc);
  ASSERT_TRUE(fd2.is_ok());
  EXPECT_EQ(p().stat("/t")->size, 0u);
}

TEST_F(FsTest, LseekWhenceVariants) {
  auto fd = p().open("/s", kOpenCreate | kOpenWrite | kOpenRead);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().write(*fd, "0123456789", 10).is_ok());
  EXPECT_EQ(*p().lseek(*fd, 2, core::Process::kSeekSet), 2u);
  EXPECT_EQ(*p().lseek(*fd, 3, core::Process::kSeekCur), 5u);
  EXPECT_EQ(*p().lseek(*fd, -4, core::Process::kSeekEnd), 6u);
  char c = 0;
  ASSERT_TRUE(p().read(*fd, &c, 1).is_ok());
  EXPECT_EQ(c, '6');
  EXPECT_EQ(p().lseek(*fd, -100, core::Process::kSeekSet).code(),
            Errc::invalid);
}

TEST_F(FsTest, CloseInvalidatesFd) {
  auto fd = p().open("/c", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  char b;
  EXPECT_EQ(p().read(*fd, &b, 1).code(), Errc::bad_fd);
  EXPECT_EQ(p().close(*fd).code(), Errc::bad_fd);
}

TEST_F(FsTest, ReadRequiresReadFlag) {
  auto fd = p().open("/w", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  char b;
  EXPECT_EQ(p().read(*fd, &b, 1).code(), Errc::bad_fd);
  EXPECT_EQ(p().pwrite(*fd, "q", 1, 0).code(), Errc::ok);
}

TEST_F(FsTest, WriteRequiresWriteFlag) {
  ASSERT_TRUE(p().open("/r", kOpenCreate | kOpenWrite).is_ok());
  auto fd = p().open("/r", kOpenRead);
  ASSERT_TRUE(fd.is_ok());
  EXPECT_EQ(p().write(*fd, "x", 1).code(), Errc::bad_fd);
}

TEST_F(FsTest, FstatMatchesStat) {
  auto fd = p().open("/f", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().write(*fd, "abc", 3).is_ok());
  auto fst = p().fstat(*fd);
  auto st = p().stat("/f");
  ASSERT_TRUE(fst.is_ok());
  ASSERT_TRUE(st.is_ok());
  EXPECT_EQ(fst->inode, st->inode);
  EXPECT_EQ(fst->size, st->size);
}

TEST_F(FsTest, InodeIdentityIsStablePersistentPointer) {
  // §4.3: the inode offset is the inode id; two lookups agree, distinct
  // files differ.
  ASSERT_TRUE(p().open("/i1", kOpenCreate | kOpenWrite).is_ok());
  ASSERT_TRUE(p().open("/i2", kOpenCreate | kOpenWrite).is_ok());
  EXPECT_EQ(p().stat("/i1")->inode, p().stat("/i1")->inode);
  EXPECT_NE(p().stat("/i1")->inode, p().stat("/i2")->inode);
}

TEST_F(FsTest, UnmountRemountKeepsData) {
  auto fd = p().open("/persist", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  ASSERT_TRUE(p().write(*fd, "durable", 7).is_ok());
  ASSERT_TRUE(p().close(*fd).is_ok());
  fs_->unmount();
  proc_.reset();
  fs_.reset();
  fs_ = core::FileSystem::mount(*nvmm_, *shm_);
  proc_ = fs_->open_process(1000, 1000);
  auto rfd = p().open("/persist", kOpenRead);
  ASSERT_TRUE(rfd.is_ok());
  char buf[8] = {};
  ASSERT_TRUE(p().read(*rfd, buf, 7).is_ok());
  EXPECT_EQ(std::string(buf, 7), "durable");
}

TEST_F(FsTest, FsyncSucceedsOnOpenFd) {
  auto fd = p().open("/sync", kOpenCreate | kOpenWrite);
  ASSERT_TRUE(fd.is_ok());
  EXPECT_TRUE(p().fsync(*fd).is_ok());
  EXPECT_EQ(p().fsync(9999).code(), Errc::bad_fd);
}

// The devices' huge-page advice is best-effort: with THP disabled for the
// process the file system formats, writes, remounts and checks clean.
TEST(HugePageAdvice, FileSystemWorksWithThpDisabled) {
  ASSERT_EQ(::prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0), 0);
  {
    nvmm::Device nvmm(64u << 20);
    nvmm::Device shm(8u << 20);
    nvmm.wipe();
    shm.wipe();
    auto fs = core::FileSystem::format(nvmm, shm);
    auto p = fs->open_process(1000, 1000);
    auto fd = p->open("/f", kOpenCreate | kOpenWrite);
    ASSERT_TRUE(fd.is_ok());
    const std::string data(3 * 4096 + 17, 'h');
    ASSERT_TRUE(p->write(*fd, data.data(), data.size()).is_ok());
    ASSERT_TRUE(p->close(*fd).is_ok());
    p.reset();
    fs->unmount();
    fs.reset();
    fs = core::FileSystem::mount(nvmm, shm);
    p = fs->open_process(1000, 1000);
    auto rfd = p->open("/f", kOpenRead);
    ASSERT_TRUE(rfd.is_ok());
    std::string back(data.size(), '\0');
    ASSERT_TRUE(p->read(*rfd, back.data(), back.size()).is_ok());
    EXPECT_EQ(back, data);
    ASSERT_TRUE(p->close(*rfd).is_ok());
    const core::CheckReport cr = core::check_fs(*fs);
    EXPECT_TRUE(cr.ok()) << cr.summary();
  }
  EXPECT_EQ(::prctl(PR_SET_THP_DISABLE, 0, 0, 0, 0), 0);
}

}  // namespace
}  // namespace simurgh::testing
