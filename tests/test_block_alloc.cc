// Tests for the segmented block allocator (§4.2).
//
// Every allocator here runs with a ShmAllocShared (and its free map)
// attached under a nonzero mount token — the configuration a mounted file
// system runs — so small requests go through the shm reservation slots.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "alloc/block_alloc.h"
#include "common/lease.h"
#include "common/rng.h"
#include "heap_shm_alloc.h"

namespace simurgh::alloc {
namespace {

constexpr std::uint64_t kMountA = 0x1001;
constexpr std::uint64_t kMountB = 0x2003;

class BlockAllocTest : public ::testing::Test {
 protected:
  static constexpr std::uint64_t kHeaderOff = 4096;
  static constexpr std::uint64_t kDataOff = 64 * 1024;

  BlockAllocTest()
      : dev_(64ull << 20),
        alloc_(BlockAllocator::format(dev_, kHeaderOff, kDataOff,
                                      dev_.size() - kDataOff, 8)),
        shared_(make_heap_shm_alloc(alloc_.n_blocks_total())) {
    attach_fresh(alloc_, shared_.get(), kMountA);
  }

  // A second mount's view of the same allocator and shm state.
  BlockAllocator peer(std::uint64_t mount_token) {
    auto b = BlockAllocator::attach(dev_, kHeaderOff);
    b.attach_shared_state(shared_.get(), mount_token);
    return b;
  }

  // The segment locks and counters live in the shm allocator block.
  ShmSegment* segments() { return shared_->segments; }

  // A mark bitmap in the free map's layout (bit set = block in use).
  std::vector<std::uint64_t> used_map(bool all_used) const {
    return std::vector<std::uint64_t>(
        free_map_words(alloc_.n_blocks_total()), all_used ? ~0ull : 0);
  }
  static void set_used(std::vector<std::uint64_t>& m, std::uint64_t b,
                       bool used) {
    if (used)
      m[b / 64] |= 1ull << (b % 64);
    else
      m[b / 64] &= ~(1ull << (b % 64));
  }
  std::uint64_t block_of(std::uint64_t off) const {
    return (off - kDataOff) / kBlockSize;
  }

  // Unused blocks parked in the slots of `mount_token`.
  std::uint64_t reserved_by(std::uint64_t mount_token) const {
    std::uint64_t n = 0;
    for (const ShmReservation& slot : shared_->reservations)
      if (slot.mount.load() == mount_token) n += slot.n.load();
    return n;
  }

  nvmm::Device dev_;
  BlockAllocator alloc_;
  HeapShmAlloc shared_;
};

TEST_F(BlockAllocTest, FormatExposesAllBlocks) {
  EXPECT_EQ(alloc_.n_segments(), 8u);
  EXPECT_EQ(alloc_.free_blocks(), (dev_.size() - kDataOff) / kBlockSize);
}

TEST_F(BlockAllocTest, AllocReturnsAlignedInRangeBlocks) {
  auto r = alloc_.alloc(4, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r % kBlockSize, 0u);
  EXPECT_GE(*r, kDataOff);
  EXPECT_LT(*r, dev_.size());
}

TEST_F(BlockAllocTest, AllocFreeRoundTrip) {
  const std::uint64_t before = alloc_.free_blocks();
  auto r = alloc_.alloc(16, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(alloc_.free_blocks(), before - 16);
  alloc_.free(*r, 16);
  EXPECT_EQ(alloc_.free_blocks(), before);
}

TEST_F(BlockAllocTest, DistinctAllocationsDontOverlap) {
  std::set<std::uint64_t> blocks;
  for (int i = 0; i < 200; ++i) {
    auto r = alloc_.alloc(3, static_cast<std::uint64_t>(i) * 7919);
    ASSERT_TRUE(r.is_ok());
    for (int b = 0; b < 3; ++b)
      EXPECT_TRUE(blocks.insert(*r + b * kBlockSize).second)
          << "overlap at allocation " << i;
  }
}

TEST_F(BlockAllocTest, HintClustersIntoSegments) {
  // Two different hints land in different segments (file spreading).  The
  // requests are too large for a reservation, so each takes the direct
  // path that the hint steers.
  constexpr std::uint64_t n = BlockAllocator::kReserveServeMax + 1;
  auto a = alloc_.alloc(n, 0 * kBlockSize);
  auto b = alloc_.alloc(n, 3 * kBlockSize);
  ASSERT_TRUE(a.is_ok());
  ASSERT_TRUE(b.is_ok());
  const std::uint64_t per_seg =
      (alloc_.n_blocks_total() + 7) / 8 * kBlockSize;
  EXPECT_NE((*a - kDataOff) / per_seg, (*b - kDataOff) / per_seg);
}

TEST_F(BlockAllocTest, CoalescingAllowsLargeRealloc) {
  // Allocate everything in small pieces, free all, then grab a huge chunk:
  // only works if free ranges coalesce.
  std::vector<std::uint64_t> offs;
  for (int i = 0; i < 64; ++i) {
    auto r = alloc_.alloc(8, 0);
    ASSERT_TRUE(r.is_ok());
    offs.push_back(*r);
  }
  for (auto off : offs) alloc_.free(off, 8);
  auto big = alloc_.alloc(64 * 8, 0);
  EXPECT_TRUE(big.is_ok());
}

TEST_F(BlockAllocTest, ExhaustionReturnsNoSpace) {
  nvmm::Device small(1 << 20);
  auto a = BlockAllocator::format(small, 4096, 64 * 1024,
                                  small.size() - 64 * 1024, 2);
  auto shared = make_heap_shm_alloc(a.n_blocks_total());
  attach_fresh(a, shared.get(), kMountA);
  // Free space is split across two segments; drain each segment's
  // contiguous range, then any further request must fail.
  const std::uint64_t total = a.free_blocks();
  const std::uint64_t half = total / 2;
  ASSERT_TRUE(a.alloc(half, 0).is_ok());
  ASSERT_TRUE(a.alloc(total - half, 0).is_ok());
  EXPECT_EQ(a.alloc(1, 0).code(), Errc::no_space);
}

TEST_F(BlockAllocTest, OversizeRequestFailsCleanly) {
  EXPECT_EQ(alloc_.alloc(alloc_.n_blocks_total() + 1, 0).code(),
            Errc::no_space);
}

TEST_F(BlockAllocTest, AttachSeesFormattedState) {
  auto r = alloc_.alloc(5, 0);
  ASSERT_TRUE(r.is_ok());
  auto re = peer(kMountB);
  EXPECT_EQ(re.free_blocks(), alloc_.free_blocks());
  re.free(*r, 5);
  EXPECT_EQ(alloc_.free_blocks(), re.free_blocks());
}

TEST_F(BlockAllocTest, ConcurrentAllocFreeNoOverlapNoLoss) {
  constexpr int kThreads = 8;
  constexpr int kIters = 300;
  const std::uint64_t before = alloc_.free_blocks();
  std::atomic<bool> overlap{false};
  std::vector<std::thread> ts;
  std::vector<std::vector<std::uint64_t>> held(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      Rng rng(t);
      for (int i = 0; i < kIters; ++i) {
        if (held[t].size() > 8 || (rng.below(2) == 0 && !held[t].empty())) {
          alloc_.free(held[t].back(), 2);
          held[t].pop_back();
        } else {
          auto r = alloc_.alloc(2, rng.next());
          if (r.is_ok()) held[t].push_back(*r);
        }
      }
    });
  }
  for (auto& th : ts) th.join();
  // No two held ranges overlap.
  std::set<std::uint64_t> all;
  std::uint64_t held_blocks = 0;
  for (auto& v : held)
    for (auto off : v) {
      held_blocks += 2;
      EXPECT_TRUE(all.insert(off).second);
      EXPECT_TRUE(all.insert(off + kBlockSize).second);
      overlap.store(false);
    }
  EXPECT_EQ(alloc_.free_blocks(), before - held_blocks);
}

TEST_F(BlockAllocTest, LeaseStealRecoversCrashedHolder) {
  // Simulate a crashed process holding a segment lock: poke the lock word
  // directly, then verify a short lease lets another caller steal it.
  alloc_.set_lease_ns(1'000'000);  // 1 ms
  ShmSegment* segs = segments();
  for (std::uint64_t s = 0; s < alloc_.n_segments(); ++s) {
    segs[s].owner.store(0xdeadbeef, std::memory_order_relaxed);
    segs[s].last_accessed_ns.store(1, std::memory_order_relaxed);
  }
  auto r = alloc_.alloc(1, 0);  // must steal rather than hang
  EXPECT_TRUE(r.is_ok());
  EXPECT_GE(alloc_.stats().lock_steals, 1u);
}

// A live holder that has taken every segment lock but not stamped it yet
// (stamp 0): it stamps at lease/4 and releases at 3·lease/4.  The
// allocation must wait for it, not steal (common/lease.h).
TEST_F(BlockAllocTest, LeaseSegmentLockWaitsOutLiveHolderWithZeroStamp) {
  constexpr std::uint64_t kLease = 200'000'000;  // 200 ms
  constexpr std::uint64_t kLive = 0x5eed;
  alloc_.set_lease_ns(kLease);
  ShmSegment* segs = segments();
  const std::uint64_t n = alloc_.n_segments();
  for (std::uint64_t s = 0; s < n; ++s) {
    segs[s].owner.store(kLive, std::memory_order_relaxed);
    segs[s].last_accessed_ns.store(0, std::memory_order_relaxed);
  }
  std::thread holder([&] {
    std::this_thread::sleep_for(std::chrono::nanoseconds(kLease / 4));
    for (std::uint64_t s = 0; s < n; ++s)
      segs[s].last_accessed_ns.store(common::lease_now_ns(),
                                          std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::nanoseconds(kLease / 2));
    for (std::uint64_t s = 0; s < n; ++s) {
      std::uint64_t mine = kLive;
      segs[s].owner.compare_exchange_strong(mine, 0);
    }
  });
  EXPECT_TRUE(alloc_.alloc(1, 0).is_ok());
  holder.join();
  EXPECT_EQ(alloc_.stats().lock_steals.load(), 0u);
}

// The reaper's pass that first sees a held segment lock only starts the
// watch: a live holder whose stamp is stale keeps its lock, a dead one
// loses it after one lease.
TEST_F(BlockAllocTest, LeaseReapSparesLiveHolderWithStaleStamp) {
  alloc_.set_lease_ns(20'000'000);  // 20 ms
  ShmSegment* segs = segments();
  for (unsigned s : {0u, 1u}) {
    segs[s].owner.store(0x5eed + s, std::memory_order_relaxed);
    segs[s].last_accessed_ns.store(1, std::memory_order_relaxed);
  }
  EXPECT_EQ(alloc_.reap_expired_segment_locks(), 0u);
  EXPECT_EQ(segs[0].owner.load(), 0x5eedu);
  // Segment 0's holder is alive and stamps; segment 1's stays silent.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  segs[0].last_accessed_ns.store(common::lease_now_ns(),
                                      std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_EQ(alloc_.reap_expired_segment_locks(), 1u);
  EXPECT_EQ(segs[0].owner.load(), 0x5eedu);
  EXPECT_EQ(segs[1].owner.load(), 0u);
  EXPECT_EQ(alloc_.stats().lock_steals.load(), 1u);
}

TEST_F(BlockAllocTest, RebuildFreeListsFromMark) {
  auto keep = alloc_.alloc(4, 0);
  auto lose = alloc_.alloc(4, 0);
  ASSERT_TRUE(keep.is_ok());
  ASSERT_TRUE(lose.is_ok());
  // Recovery's mark bitmap: only `keep` is reachable.
  std::vector<std::uint64_t> used = used_map(false);
  for (std::uint64_t b = 0; b < 4; ++b) set_used(used, block_of(*keep) + b, true);
  alloc_.rebuild_free_map(used.data());
  EXPECT_EQ(alloc_.free_blocks(), alloc_.n_blocks_total() - 4);
  EXPECT_EQ(alloc_.reserved_unused_blocks(), 0u);
  // Every segment's counter matches the clear bits the map holds.
  std::vector<std::uint64_t> seen(alloc_.n_segments(), 0);
  alloc_.for_each_free_run([&](unsigned s, std::uint64_t off,
                               std::uint64_t n) {
    seen[s] += n;
    EXPECT_FALSE(off < *keep + 4 * kBlockSize && *keep < off + n * kBlockSize)
        << "reachable block reported free";
  });
  for (unsigned s = 0; s < alloc_.n_segments(); ++s)
    EXPECT_EQ(seen[s], alloc_.segment_free_blocks(s)) << "segment " << s;
  // The "lost" range must be allocatable again.
  bool found = false;
  for (std::uint64_t i = 0; i < alloc_.n_blocks_total() - 4; i += 4) {
    auto r = alloc_.alloc(4, 0);
    if (!r.is_ok()) break;
    if (*r == *lose) {
      found = true;
      break;
    }
  }
  EXPECT_TRUE(found);
}

// A segment fragmented into a checkerboard holds no 64-block run except
// the one aligned word left wholly free: a 64-block request gets exactly
// that word, the next one no_space, and 1-block requests still succeed.
TEST_F(BlockAllocTest, CheckerboardSegmentServesOnlyTheAlignedRun) {
  std::vector<std::uint64_t> used = used_map(false);
  for (std::uint64_t b = 0; b < alloc_.n_blocks_total(); b += 2)
    set_used(used, b, true);
  const std::uint64_t run_word = free_map_words(alloc_.n_blocks_total()) / 2;
  used[run_word] = 0;
  set_used(used, run_word * 64 - 1, true);  // the hole abutting it
  alloc_.rebuild_free_map(used.data());
  const std::uint64_t free_before = alloc_.free_blocks();

  auto big = alloc_.alloc(64, 0);
  ASSERT_TRUE(big.is_ok());
  EXPECT_EQ(*big, kDataOff + run_word * 64 * kBlockSize);
  EXPECT_EQ(alloc_.alloc(64, 0).code(), Errc::no_space);
  for (const std::uint64_t hint : {std::uint64_t{0}, 5 * kBlockSize})
    EXPECT_EQ(alloc_.alloc(2, hint).code(), Errc::no_space);

  // A 1-block request refills its reservation with the first single hole
  // it meets (no 64-block run is left to carve) and is served from it.
  auto one = alloc_.alloc(1, 0);
  ASSERT_TRUE(one.is_ok());
  EXPECT_EQ(block_of(*one) % 2, 1u) << "not a checkerboard hole";
  EXPECT_EQ(alloc_.reserved_unused_blocks(), 0u);
  EXPECT_EQ(alloc_.free_blocks(), free_before - 65);
  alloc_.free(*big, 64);
  alloc_.free(*one, 1);
  EXPECT_EQ(alloc_.free_blocks(), free_before);
}

// A refill that finds no whole chunk takes the first run that fits the
// request, up to a chunk, in one walk: a 3-block hole serves a 2-block
// request and parks the third block in the reservation.
TEST_F(BlockAllocTest, RefillTakesFirstFittingRunWhenNoChunkIsLeft) {
  std::vector<std::uint64_t> used = used_map(true);
  const std::uint64_t hole = 1000;
  for (std::uint64_t b = hole; b < hole + 3; ++b) set_used(used, b, false);
  set_used(used, 3000, false);  // a lone block: too short for 2
  alloc_.rebuild_free_map(used.data());
  ASSERT_EQ(alloc_.free_blocks(), 4u);
  auto r = alloc_.alloc(2, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(block_of(*r), hole);
  EXPECT_EQ(alloc_.reserved_unused_blocks(), 1u);
  auto next = alloc_.alloc(1, 0);  // served from the reservation
  ASSERT_TRUE(next.is_ok());
  EXPECT_EQ(block_of(*next), hole + 2);
  EXPECT_EQ(alloc_.free_blocks(), 1u);
}

// A holder that dies between flipping bits and moving the counter leaves
// them out of step; the lease thief recounts the segment from its bits.
TEST_F(BlockAllocTest, LeaseThiefRecountsSegmentCounter) {
  std::vector<std::uint64_t> used = used_map(false);
  set_used(used, 0, true);
  alloc_.rebuild_free_map(used.data());
  const std::uint64_t truth = alloc_.segment_free_blocks(0);
  alloc_.set_lease_ns(1'000'000);  // 1 ms
  ShmSegment& seg = segments()[0];
  seg.free_blocks.store(truth + 12345, std::memory_order_relaxed);
  seg.owner.store(0xdeadbeef, std::memory_order_relaxed);
  seg.last_accessed_ns.store(1, std::memory_order_relaxed);
  alloc_.free(kDataOff, 1);  // block 0 belongs to segment 0
  EXPECT_GE(alloc_.stats().lock_steals.load(), 1u);
  EXPECT_EQ(alloc_.segment_free_blocks(0), truth + 1);
}

// ---- per-thread shm reservations (data-path fast lane) ----

TEST_F(BlockAllocTest, ReservationsKeepFreeAccountingExact) {
  const std::uint64_t total = alloc_.free_blocks();
  // First small alloc carves a whole chunk but only 1 block leaves the
  // free count: the carved-but-unused remainder still counts as free.
  auto a = alloc_.alloc(1, 0);
  ASSERT_TRUE(a.is_ok());
  EXPECT_EQ(alloc_.free_blocks(), total - 1);
  EXPECT_EQ(alloc_.reserved_unused_blocks(),
            BlockAllocator::kReserveChunk - 1);
  auto b = alloc_.alloc(2, 0);
  ASSERT_TRUE(b.is_ok());
  EXPECT_EQ(alloc_.free_blocks(), total - 3);
  alloc_.free(*a, 1);
  alloc_.free(*b, 2);
  EXPECT_EQ(alloc_.free_blocks(), total);
  // Draining folds the remainder back into the free map.
  alloc_.drain_reservations();
  EXPECT_EQ(alloc_.reserved_unused_blocks(), 0u);
  EXPECT_EQ(alloc_.free_blocks(), total);
}

TEST_F(BlockAllocTest, ReservationServesAscendingContiguousBlocks) {
  // Consecutive 1-block allocs from one thread must be device-contiguous
  // and ascending — that is the whole point (appends merge into one
  // extent).
  auto first = alloc_.alloc(1, 0);
  ASSERT_TRUE(first.is_ok());
  std::uint64_t prev = *first;
  for (std::uint64_t i = 1; i < BlockAllocator::kReserveChunk; ++i) {
    auto r = alloc_.alloc(1, 0);
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(*r, prev + kBlockSize) << "allocation " << i;
    prev = *r;
  }
  EXPECT_GE(alloc_.stats().reserve_hits.load(),
            BlockAllocator::kReserveChunk - 1);
}

TEST_F(BlockAllocTest, LargeRequestsBypassTheReservation) {
  const std::uint64_t total = alloc_.free_blocks();
  auto r = alloc_.alloc(BlockAllocator::kReserveServeMax + 1, 0);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(alloc_.reserved_unused_blocks(), 0u);  // no chunk was carved
  EXPECT_EQ(alloc_.free_blocks(),
            total - (BlockAllocator::kReserveServeMax + 1));
}

TEST_F(BlockAllocTest, InvalidateAndRebuildReclaimsReservedBlocks) {
  auto a = alloc_.alloc(1, 0);
  ASSERT_TRUE(a.is_ok());
  ASSERT_GT(alloc_.reserved_unused_blocks(), 0u);
  // Crash: the volatile reservation is forgotten; recovery's sweep sees
  // only the one block actually referenced and rebuilds the map around it.
  std::vector<std::uint64_t> used = used_map(false);
  set_used(used, block_of(*a), true);
  alloc_.rebuild_free_map(used.data());
  EXPECT_EQ(alloc_.reserved_unused_blocks(), 0u);
  EXPECT_EQ(alloc_.free_blocks(), alloc_.n_blocks_total() - 1);
}

TEST_F(BlockAllocTest, ExitedThreadsReservationIsAdoptedOrDrained) {
  const std::uint64_t total = alloc_.free_blocks();
  std::thread t([&] {
    auto r = alloc_.alloc(1, 0);
    ASSERT_TRUE(r.is_ok());
    alloc_.free(*r, 1);
  });
  t.join();
  // The exited thread's slot still holds its remainder under this mount's
  // token (counted free), and the mount's drain returns it to the map.
  EXPECT_EQ(alloc_.free_blocks(), total);
  EXPECT_GT(alloc_.reserved_unused_blocks(), 0u);
  alloc_.drain_reservations();
  EXPECT_EQ(alloc_.reserved_unused_blocks(), 0u);
  EXPECT_EQ(alloc_.free_blocks(), total);
  EXPECT_GE(alloc_.stats().reserve_drains.load(), 1u);
}

TEST_F(BlockAllocTest, ConcurrentReservedAllocsNeverOverlap) {
  constexpr int kThreads = 8;
  constexpr int kPerThread = 300;
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      got[t].reserve(kPerThread);
      Rng rng(static_cast<std::uint64_t>(t) + 1);
      for (int i = 0; i < kPerThread; ++i) {
        const std::uint64_t n = 1 + rng.next() % 4;
        auto r = alloc_.alloc(n, t);
        ASSERT_TRUE(r.is_ok());
        for (std::uint64_t b = 0; b < n; ++b)
          got[t].push_back(*r + b * kBlockSize);
      }
    });
  for (auto& th : ts) th.join();
  std::set<std::uint64_t> all;
  for (const auto& v : got)
    for (std::uint64_t off : v)
      EXPECT_TRUE(all.insert(off).second) << "double-handed block " << off;
  // Every handed-out block plus the reserved remainders must reconcile
  // with the free count — nothing leaked, nothing double-counted.
  EXPECT_EQ(alloc_.free_blocks(), alloc_.n_blocks_total() - all.size());
  alloc_.drain_reservations();
  EXPECT_EQ(alloc_.free_blocks(), alloc_.n_blocks_total() - all.size());
}

TEST_F(BlockAllocTest, TwoMountsShareOneShmStateWithoutDoubleHanding) {
  // Two mounts' allocators over one device and one shm allocator block:
  // concurrent alloc/free from both must never hand out a block twice, and
  // a survivor's reclaim must return exactly the dead mount's remainders.
  BlockAllocator other = peer(kMountB);
  const std::uint64_t total = alloc_.free_blocks();
  constexpr int kThreads = 4;  // even: mount A, odd: mount B
  constexpr int kIters = 400;
  std::mutex mu;
  std::set<std::uint64_t> live;  // every block currently handed out
  std::atomic<int> double_handed{0};
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> held(
      kThreads);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&, t] {
      BlockAllocator& a = t % 2 == 0 ? alloc_ : other;
      Rng rng(static_cast<std::uint64_t>(t) + 7);
      for (int i = 0; i < kIters; ++i) {
        if (!held[t].empty() && (held[t].size() > 16 || rng.below(3) == 0)) {
          const auto [off, n] = held[t].back();
          held[t].pop_back();
          {
            std::lock_guard<std::mutex> g(mu);
            for (std::uint64_t b = 0; b < n; ++b)
              live.erase(off + b * kBlockSize);
          }
          a.free(off, n);
          continue;
        }
        const std::uint64_t n = 1 + rng.below(4);
        auto r = a.alloc(n, rng.next());
        ASSERT_TRUE(r.is_ok());
        std::lock_guard<std::mutex> g(mu);
        for (std::uint64_t b = 0; b < n; ++b)
          if (!live.insert(*r + b * kBlockSize).second) ++double_handed;
        held[t].emplace_back(*r, n);
      }
    });
  for (auto& th : ts) th.join();
  EXPECT_EQ(double_handed.load(), 0);
  EXPECT_EQ(alloc_.free_blocks(), total - live.size());
  EXPECT_EQ(other.free_blocks(), alloc_.free_blocks());

  // Mount B dies holding a fresh chunk (this thread's first B carve).
  ASSERT_TRUE(other.alloc(1, 0).is_ok());
  const std::uint64_t dead = reserved_by(kMountB);
  const std::uint64_t survivor = reserved_by(kMountA);
  ASSERT_GE(dead, BlockAllocator::kReserveChunk - 1);
  EXPECT_EQ(alloc_.reclaim_mount_reservations(
                [](std::uint64_t tok) { return tok == kMountB; }),
            dead);
  EXPECT_EQ(reserved_by(kMountB), 0u);
  EXPECT_EQ(reserved_by(kMountA), survivor);  // peers' chunks untouched
  EXPECT_EQ(alloc_.reserved_unused_blocks(), survivor);
  EXPECT_EQ(alloc_.free_blocks(), total - live.size() - 1);
}

}  // namespace
}  // namespace simurgh::alloc
