// The lease rule (common/lease.h) through the real lock types.
//
// A holder stamps its lock just after the acquiring CAS, so a waiter can
// meet a live holder whose stamp is still 0 or an earlier holder's.  Each
// case below builds that window on purpose: the word is held by a live
// token with a zero (or stale) stamp; a holder thread stamps it at lease/4
// and releases it at 3·lease/4.  No waiter or sweep may steal it.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>

#include "alloc/shm_state.h"
#include "common/lease.h"
#include "core/dir_block.h"
#include "core/layout.h"
#include "core/shm.h"
#include "nvmm/device.h"

namespace simurgh::core {
namespace {

constexpr std::uint64_t kLease = 200'000'000;  // 200 ms
constexpr std::uint64_t kLiveToken = 0x5eed;

// The live holder: stamps at lease/4, then runs `release` at 3·lease/4.
template <typename Release>
std::thread live_holder(std::atomic<std::uint64_t>& stamp_ns,
                        Release release) {
  return std::thread([&stamp_ns, release] {
    std::this_thread::sleep_for(std::chrono::nanoseconds(kLease / 4));
    stamp_ns.store(common::lease_now_ns(), std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::nanoseconds(kLease / 2));
    release();
  });
}

TEST(LeaseLockTest, DirLineLockWaitsOutLiveHolderWithZeroStamp) {
  auto head = std::make_unique<DirBlock>();
  constexpr unsigned kLine = 5;
  head->busy.store(1ull << kLine, std::memory_order_relaxed);
  head->stamp_ns[kLine].store(0, std::memory_order_relaxed);
  std::thread holder = live_holder(head->stamp_ns[kLine], [&] {
    head->busy.fetch_and(~(1ull << kLine), std::memory_order_release);
  });
  {
    LineLock lock(head.get(), kLine, kLease);
    EXPECT_FALSE(lock.stole_lease());
  }
  holder.join();
  EXPECT_EQ(head->busy.load(), 0u);
}

TEST(LeaseLockTest, DirLineLockStealsFromSilentHolderAfterOneLease) {
  constexpr std::uint64_t kShortLease = 20'000'000;  // 20 ms
  auto head = std::make_unique<DirBlock>();
  head->busy.store(1ull << 7, std::memory_order_relaxed);
  const std::uint64_t t0 = common::lease_now_ns();
  LineLock lock(head.get(), 7, kShortLease);
  EXPECT_TRUE(lock.stole_lease());
  EXPECT_GT(common::lease_now_ns() - t0, kShortLease);
}

TEST(LeaseLockTest, ShmReservationSlotWaitsOutLiveHolderWithZeroStamp) {
  auto shared = std::make_unique<alloc::ShmAllocShared>();
  shared->reset(sizeof(alloc::ShmAllocShared), 0);  // reservations only
  alloc::ShmReservation& slot = shared->reservations[0];
  slot.lock.store(kLiveToken, std::memory_order_relaxed);
  std::atomic<bool> released_own{false};
  std::thread holder = live_holder(slot.lock_stamp_ns, [&] {
    std::uint64_t mine = kLiveToken;
    released_own = slot.lock.compare_exchange_strong(mine, 0);
  });
  const std::uint64_t self = common::lease_self_token();
  alloc::lock_reservation(slot, self, kLease);
  EXPECT_EQ(slot.lock.load(), self);
  alloc::unlock_reservation(slot, self);
  holder.join();
  EXPECT_TRUE(released_own.load()) << "the waiter stole a live holder's slot";
}

class LeaseShmTest : public ::testing::Test {
 protected:
  LeaseShmTest()
      : shm_(4ull << 20),
        locks_(FileLockTable::format(shm_, 0, 64)),
        header_(*reinterpret_cast<ShmHeader*>(shm_.base())) {}

  nvmm::Device shm_;
  FileLockTable locks_;
  ShmHeader& header_;
};

TEST_F(LeaseShmTest, RegistryLockWaitsOutLiveHolderWithZeroStamp) {
  MountRegistry registry(shm_, 0);
  registry.set_lease_ns(kLease);
  header_.registry_lock.store(kLiveToken, std::memory_order_relaxed);
  header_.registry_lock_stamp_ns.store(0, std::memory_order_relaxed);
  std::atomic<bool> released_own{false};
  std::thread holder = live_holder(header_.registry_lock_stamp_ns, [&] {
    std::uint64_t mine = kLiveToken;
    released_own = header_.registry_lock.compare_exchange_strong(mine, 0);
  });
  // attach_mount takes the registry lock.
  const MountRegistry::Attachment a = registry.attach_mount();
  holder.join();
  EXPECT_TRUE(released_own.load()) << "attach stole a live holder's lock";
  EXPECT_EQ(header_.registry_lock.load(), 0u);
  EXPECT_EQ(registry.attached_mounts(), 1u);
  registry.finish_recovery(a);
}

// A one-shot sweep has no wait of its own: the pass that first sees a
// lock held only starts the watch.
TEST_F(LeaseShmTest, FileLockSweepSparesLiveWriterWithStaleStamp) {
  locks_.set_lease_ns(20'000'000);  // 20 ms
  FileLock& live = locks_.slot_for(444);
  FileLock& dead = locks_.slot_for(555);
  for (FileLock* l : {&live, &dead}) {
    l->word.store(0x8000'0000u, std::memory_order_relaxed);
    l->stamp_ns.store(1, std::memory_order_relaxed);
  }
  EXPECT_EQ(locks_.sweep_expired(), 0u);
  EXPECT_EQ(live.word.load(), 0x8000'0000u);
  // The live writer stamps; the dead one stays silent for a whole lease.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  live.stamp_ns.store(common::lease_now_ns(), std::memory_order_relaxed);
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  EXPECT_EQ(locks_.sweep_expired(), 1u);
  EXPECT_EQ(live.word.load(), 0x8000'0000u);
  EXPECT_EQ(dead.word.load(), 0u);
  EXPECT_EQ(locks_.stats().lease_steals.load(), 1u);
}

}  // namespace
}  // namespace simurgh::core
