// Tests for the two-bit metadata object allocator (§4.2).
//
// Every allocator here runs with a ShmAllocShared attached under a nonzero
// mount token — the configuration a mounted file system runs: block
// reservations in shm slots, free-object hints in the shared stack.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "alloc/obj_alloc.h"
#include "common/failpoint.h"
#include "common/rng.h"
#include "heap_shm_alloc.h"

namespace simurgh::alloc {
namespace {

constexpr std::uint64_t kMountA = 0x1001;
constexpr std::uint64_t kMountB = 0x2003;
constexpr std::uint64_t kPoolOff = 8192;

class ObjAllocTest : public ::testing::Test {
 protected:
  ObjAllocTest()
      : dev_(64ull << 20),
        shared_(make_heap_shm_alloc((dev_.size() - 64 * 1024) / kBlockSize)),
        blocks_(BlockAllocator::format(dev_, 4096, 64 * 1024,
                                       dev_.size() - 64 * 1024, 4)),
        pool_(ObjectAllocator::format(dev_, blocks_, kPoolOff, 120, 64)) {
    attach_fresh(blocks_, shared_.get(), kMountA);
    pool_.attach_shared_cache(&shared_->obj_stacks[0], kMountA);
  }

  // A second mount's view of the pool, sharing the shm state.
  ObjectAllocator peer_pool(BlockAllocator& blocks, std::uint64_t token) {
    auto p = ObjectAllocator::attach(dev_, blocks, kPoolOff);
    p.attach_shared_cache(&shared_->obj_stacks[0], token);
    return p;
  }

  nvmm::Device dev_;
  HeapShmAlloc shared_;
  BlockAllocator blocks_;
  ObjectAllocator pool_;
};

TEST_F(ObjAllocTest, AllocSetsValidAndDirty) {
  auto r = pool_.alloc();
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(pool_.flags_of(*r), kObjValid | kObjDirty);
}

TEST_F(ObjAllocTest, AllocReturnsZeroedPayload) {
  auto r = pool_.alloc();
  ASSERT_TRUE(r.is_ok());
  const auto* p = dev_.at(*r);
  for (std::uint64_t i = 0; i < pool_.payload_size(); ++i)
    ASSERT_EQ(std::to_integer<int>(p[i]), 0) << i;
}

TEST_F(ObjAllocTest, CommitClearsDirtyOnly) {
  auto r = pool_.alloc();
  ASSERT_TRUE(r.is_ok());
  pool_.commit(*r);
  EXPECT_EQ(pool_.flags_of(*r), kObjValid);
}

TEST_F(ObjAllocTest, FreeRunsTwoBitProtocolAndZeroes) {
  auto r = pool_.alloc();
  ASSERT_TRUE(r.is_ok());
  pool_.commit(*r);
  std::memset(dev_.at(*r), 0x5a, pool_.payload_size());
  pool_.free(*r);
  EXPECT_EQ(pool_.flags_of(*r), 0u);
  const auto* p = dev_.at(*r);
  for (std::uint64_t i = 0; i < pool_.payload_size(); ++i)
    ASSERT_EQ(std::to_integer<int>(p[i]), 0);
}

TEST_F(ObjAllocTest, FreedObjectIsReused) {
  auto a = pool_.alloc();
  ASSERT_TRUE(a.is_ok());
  pool_.free(*a);
  // Allocate until we see the freed offset again (it is cached).
  auto b = pool_.alloc();
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(*b, *a);
}

TEST_F(ObjAllocTest, GrowsBeyondOneSegment) {
  std::set<std::uint64_t> offs;
  for (int i = 0; i < 300; ++i) {  // objs_per_segment = 64
    auto r = pool_.alloc();
    ASSERT_TRUE(r.is_ok()) << i;
    EXPECT_TRUE(offs.insert(*r).second) << "duplicate at " << i;
  }
}

TEST_F(ObjAllocTest, AttachFindsExistingObjects) {
  auto a = pool_.alloc();
  ASSERT_TRUE(a.is_ok());
  pool_.commit(*a);
  auto re = peer_pool(blocks_, kMountB);
  EXPECT_EQ(re.flags_of(*a), kObjValid);
  EXPECT_EQ(re.payload_size(), 120u);
  // New allocations from the re-attached pool avoid the live object.
  for (int i = 0; i < 200; ++i) {
    auto r = re.alloc();
    ASSERT_TRUE(r.is_ok());
    EXPECT_NE(*r, *a);
  }
}

TEST_F(ObjAllocTest, CrashDuringFreeLeavesDirtyOnly) {
  auto r = pool_.alloc();
  ASSERT_TRUE(r.is_ok());
  pool_.commit(*r);
  FailPoint::arm("objalloc.free.valid_cleared");
  EXPECT_THROW(pool_.free(*r), CrashedException);
  // State 01: deallocation in progress — the unique recovery decision.
  EXPECT_EQ(pool_.flags_of(*r), kObjDirty);
  pool_.finish_pending_free(*r);
  EXPECT_EQ(pool_.flags_of(*r), 0u);
}

TEST_F(ObjAllocTest, CrashAfterZeroStillRecoverable) {
  auto r = pool_.alloc();
  ASSERT_TRUE(r.is_ok());
  pool_.commit(*r);
  FailPoint::arm("objalloc.free.zeroed");
  EXPECT_THROW(pool_.free(*r), CrashedException);
  EXPECT_EQ(pool_.flags_of(*r), kObjDirty);
  pool_.finish_pending_free(*r);
  EXPECT_EQ(pool_.flags_of(*r), 0u);
}

TEST_F(ObjAllocTest, ScanReportsEveryState) {
  auto a = pool_.alloc();  // 11
  auto b = pool_.alloc();  // will be 10
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  pool_.commit(*b);
  int n11 = 0, n10 = 0, n00 = 0;
  pool_.scan([&](std::uint64_t, std::uint32_t flags) {
    if (flags == (kObjValid | kObjDirty)) ++n11;
    else if (flags == kObjValid) ++n10;
    else if (flags == 0) ++n00;
  });
  EXPECT_EQ(n11, 1);
  EXPECT_EQ(n10, 1);
  EXPECT_GE(n00, 62);
}

TEST_F(ObjAllocTest, ConcurrentAllocNeverDuplicates) {
  constexpr int kThreads = 8;
  constexpr int kPer = 200;
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        auto r = pool_.alloc();
        ASSERT_TRUE(r.is_ok());
        got[t].push_back(*r);
      }
    });
  }
  for (auto& th : ts) th.join();
  std::set<std::uint64_t> all;
  for (auto& v : got)
    for (auto off : v) EXPECT_TRUE(all.insert(off).second);
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads * kPer));
}

TEST_F(ObjAllocTest, DropVolatileCacheStillAllocates) {
  auto a = pool_.alloc();
  ASSERT_TRUE(a.is_ok());
  pool_.drop_volatile_cache();
  auto b = pool_.alloc();  // forces a refill scan
  ASSERT_TRUE(b.is_ok());
  EXPECT_NE(*a, *b);
}

TEST_F(ObjAllocTest, TwoMountsShareOneShmStateWithoutDoubleHanding) {
  // Two mounts — each its own block and object allocator over the same
  // device, one shm allocator block — allocate and free concurrently.  An
  // object must never be handed out while another holder still has it.
  auto other_blocks = BlockAllocator::attach(dev_, 4096);
  other_blocks.attach_shared_state(shared_.get(), kMountB);
  ObjectAllocator other = peer_pool(other_blocks, kMountB);
  constexpr int kThreads = 4;  // even: mount A, odd: mount B
  constexpr int kIters = 600;
  std::mutex mu;
  std::set<std::uint64_t> live;
  std::atomic<int> double_handed{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      ObjectAllocator& pool = t % 2 == 0 ? pool_ : other;
      Rng rng(static_cast<std::uint64_t>(t) + 3);
      std::vector<std::uint64_t> mine;
      for (int i = 0; i < kIters; ++i) {
        if (!mine.empty() && (mine.size() > 32 || rng.below(3) == 0)) {
          const std::uint64_t off = mine.back();
          mine.pop_back();
          {
            std::lock_guard<std::mutex> g(mu);
            live.erase(off);
          }
          pool.free(off);
          continue;
        }
        auto r = pool.alloc();
        ASSERT_TRUE(r.is_ok());
        pool.commit(*r);
        mine.push_back(*r);
        std::lock_guard<std::mutex> g(mu);
        if (!live.insert(*r).second) ++double_handed;
      }
    });
  for (auto& th : ts) th.join();
  EXPECT_EQ(double_handed.load(), 0);
  std::size_t valid = 0;
  pool_.scan([&](std::uint64_t, std::uint32_t flags) {
    if (flags == kObjValid) ++valid;
  });
  EXPECT_EQ(valid, live.size());
}

}  // namespace
}  // namespace simurgh::alloc
