// Data-path tests: extents, large files, truncate, fallocate, persistence
// ordering (§4.3 "Data operations").
#include <cstring>

#include "common/rng.h"
#include "fs_fixture.h"
#include "nvmm/persist.h"
#include "nvmm/shadow.h"

namespace simurgh::testing {
namespace {

using core::kOpenCreate;
using core::kOpenRead;
using core::kOpenWrite;

class FsDataTest : public FsTest {
 protected:
  int make_file(const std::string& path) {
    auto fd = p().open(path, kOpenCreate | kOpenWrite | kOpenRead);
    EXPECT_TRUE(fd.is_ok());
    return *fd;
  }
};

TEST_F(FsDataTest, MultiBlockWriteReadBack) {
  const int fd = make_file("/big");
  std::vector<char> data(100 * 1024);
  Rng rng(42);
  for (auto& c : data) c = static_cast<char>(rng.next());
  ASSERT_EQ(*p().pwrite(fd, data.data(), data.size(), 0), data.size());
  std::vector<char> back(data.size());
  ASSERT_EQ(*p().pread(fd, back.data(), back.size(), 0), back.size());
  EXPECT_EQ(std::memcmp(data.data(), back.data(), data.size()), 0);
}

TEST_F(FsDataTest, UnalignedWritesAcrossBlockBoundaries) {
  const int fd = make_file("/unaligned");
  // Write 100 bytes straddling the 4 KB boundary.
  std::string chunk(100, 'Z');
  ASSERT_TRUE(p().pwrite(fd, chunk.data(), chunk.size(), 4096 - 50).is_ok());
  char buf[100];
  ASSERT_TRUE(p().pread(fd, buf, 100, 4096 - 50).is_ok());
  EXPECT_EQ(std::string(buf, 100), chunk);
  // Bytes before the write within the same block read as zero.
  char pre[10];
  ASSERT_TRUE(p().pread(fd, pre, 10, 4096 - 60).is_ok());
  EXPECT_EQ(std::string(pre, 10), std::string(10, '\0'));
}

TEST_F(FsDataTest, SpillsBeyondInlineExtents) {
  // Writing every *other* block leaves holes between extents, so no two
  // extents can merge: 200 extents forces the spill chain (> 6 inline).
  const int fd = make_file("/spill");
  char blk[4096];
  for (int i = 0; i < 200; ++i) {
    std::memset(blk, 'a' + (i % 26), sizeof blk);
    ASSERT_TRUE(
        p().pwrite(fd, blk, sizeof blk, 2ull * i * sizeof blk).is_ok());
  }
  const core::Inode* ino = fs_->inode_at(p().stat("/spill")->inode);
  EXPECT_FALSE(ino->ext_spill.load().is_null());
  char buf[4096];
  for (int i = 0; i < 200; i += 37) {
    ASSERT_TRUE(
        p().pread(fd, buf, sizeof buf, 2ull * i * sizeof buf).is_ok());
    EXPECT_EQ(buf[0], static_cast<char>('a' + (i % 26))) << i;
    // The hole after each written block reads zero.
    ASSERT_TRUE(
        p().pread(fd, buf, sizeof buf, (2ull * i + 1) * sizeof buf).is_ok());
    EXPECT_EQ(buf[0], '\0');
  }
}

TEST_F(FsDataTest, ReadPastEofTruncatesAndAtEofReturnsZero) {
  const int fd = make_file("/eof");
  ASSERT_TRUE(p().pwrite(fd, "12345", 5, 0).is_ok());
  char buf[10];
  EXPECT_EQ(*p().pread(fd, buf, 10, 0), 5u);
  EXPECT_EQ(*p().pread(fd, buf, 10, 5), 0u);
  EXPECT_EQ(*p().pread(fd, buf, 10, 100), 0u);
}

TEST_F(FsDataTest, TruncateShrinkFreesBlocksAndZeroesTail) {
  const int fd = make_file("/shrink");
  std::vector<char> data(64 * 1024, 'q');
  ASSERT_TRUE(p().pwrite(fd, data.data(), data.size(), 0).is_ok());
  const std::uint64_t free_before = fs_->blocks().free_blocks();
  ASSERT_TRUE(p().ftruncate(fd, 100).is_ok());
  EXPECT_GT(fs_->blocks().free_blocks(), free_before);
  EXPECT_EQ(p().stat("/shrink")->size, 100u);
  // Regrow: bytes beyond 100 must read zero, not stale 'q'.
  ASSERT_TRUE(p().ftruncate(fd, 200).is_ok());
  char buf[100];
  ASSERT_TRUE(p().pread(fd, buf, 100, 100).is_ok());
  EXPECT_EQ(std::string(buf, 100), std::string(100, '\0'));
}

TEST_F(FsDataTest, TruncateGrowReadsZeros) {
  const int fd = make_file("/grow");
  ASSERT_TRUE(p().ftruncate(fd, 10000).is_ok());
  EXPECT_EQ(p().stat("/grow")->size, 10000u);
  char buf[100];
  ASSERT_TRUE(p().pread(fd, buf, 100, 5000).is_ok());
  EXPECT_EQ(std::string(buf, 100), std::string(100, '\0'));
}

TEST_F(FsDataTest, FallocateReservesBlocks) {
  const int fd = make_file("/prealloc");
  const std::uint64_t before = fs_->blocks().free_blocks();
  ASSERT_TRUE(p().fallocate(fd, 0, 4 << 20).is_ok());
  EXPECT_EQ(before - fs_->blocks().free_blocks(), (4u << 20) / 4096);
  EXPECT_EQ(p().stat("/prealloc")->size, 4u << 20);
  // Subsequent writes must not allocate further blocks.
  const std::uint64_t after_falloc = fs_->blocks().free_blocks();
  char blk[4096] = {1};
  ASSERT_TRUE(p().pwrite(fd, blk, sizeof blk, 1 << 20).is_ok());
  EXPECT_EQ(fs_->blocks().free_blocks(), after_falloc);
}

TEST_F(FsDataTest, WritePersistsDataBeforeMetadata) {
  // The paper's ordering rule: data is persisted (nt stores) and fenced
  // before the size update.  Observable via the persist-stats epochs: the
  // write path must issue at least two fences with nt bytes in between.
  auto& ps = nvmm::persist_stats();
  const int fd = make_file("/order");
  ps.reset();
  ASSERT_TRUE(p().pwrite(fd, "payload", 7, 0).is_ok());
  EXPECT_GE(ps.nt_bytes.load(), 7u);
  EXPECT_GE(ps.fences.load(), 2u);  // data fence + metadata fence
}

TEST_F(FsDataTest, UnlinkReturnsBlocksToAllocator) {
  const int fd = make_file("/deleteme");
  std::vector<char> data(256 * 1024, 'd');
  ASSERT_TRUE(p().pwrite(fd, data.data(), data.size(), 0).is_ok());
  ASSERT_TRUE(p().close(fd).is_ok());
  const std::uint64_t used = fs_->blocks().free_blocks();
  ASSERT_TRUE(p().unlink("/deleteme").is_ok());
  EXPECT_EQ(fs_->blocks().free_blocks(), used + 256 * 1024 / 4096);
}

TEST_F(FsDataTest, OverwriteCommitsExactlyOneMetadataLine) {
  const int fd = make_file("/persistshape");
  std::vector<char> blk(4096, 'x');
  // First write allocates; the measured overwrite is pure data + commit.
  ASSERT_TRUE(p().pwrite(fd, blk.data(), blk.size(), 0).is_ok());
  nvmm::FlushCounter fc;
  ASSERT_TRUE(p().pwrite(fd, blk.data(), blk.size(), 0).is_ok());
  // The commit flushes only the inode's size/mtime stamp — one cache line,
  // one persist call — not the whole Inode (which spans four lines).  Two
  // fences: data-before-metadata, then the commit itself.
  EXPECT_EQ(fc.persist_calls(), 1u);
  EXPECT_EQ(fc.persist_lines(), 1u);
  EXPECT_EQ(fc.nt_lines(), 4096u / nvmm::kCacheLine);
  EXPECT_EQ(fc.fences(), 2u);
}

TEST_F(FsDataTest, MultiBlockWriteStreamsOnce) {
  const int fd = make_file("/coalesce");
  std::vector<char> buf(8 * 4096, 'm');
  {
    nvmm::FlushCounter fc;
    ASSERT_TRUE(p().pwrite(fd, buf.data(), buf.size(), 0).is_ok());
    // Eight fresh blocks come from one reservation carve, so they are
    // device-contiguous and the copy loop issues ONE streaming store for
    // the whole write instead of one per 4 KB block.
    EXPECT_EQ(fc.nt_stores(), 1u);
    EXPECT_EQ(fc.nt_lines(), buf.size() / nvmm::kCacheLine);
  }
  {
    // Same shape on the overwrite: the extent is contiguous, one stream,
    // one metadata line, two fences — for a 32 KB write.
    nvmm::FlushCounter fc;
    ASSERT_TRUE(p().pwrite(fd, buf.data(), buf.size(), 0).is_ok());
    EXPECT_EQ(fc.nt_stores(), 1u);
    EXPECT_EQ(fc.persist_lines(), 1u);
    EXPECT_EQ(fc.fences(), 2u);
  }
}

TEST_F(FsDataTest, OverwriteDoesNotGrowFile) {
  const int fd = make_file("/ow");
  ASSERT_TRUE(p().pwrite(fd, "ABCDEFGH", 8, 0).is_ok());
  ASSERT_TRUE(p().pwrite(fd, "xy", 2, 2).is_ok());
  EXPECT_EQ(p().stat("/ow")->size, 8u);
  char buf[8];
  ASSERT_TRUE(p().pread(fd, buf, 8, 0).is_ok());
  EXPECT_EQ(std::string(buf, 8), "ABxyEFGH");
}

}  // namespace
}  // namespace simurgh::testing
