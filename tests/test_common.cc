#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <set>
#include <thread>
#include <vector>

#include "common/counters.h"
#include "common/failpoint.h"
#include "common/hash.h"
#include "common/lease.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/table.h"
#include "core/integrity.h"

namespace simurgh {
namespace {

TEST(Status, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.is_ok());
  EXPECT_EQ(s.code(), Errc::ok);
}

TEST(Status, CarriesCode) {
  Status s(Errc::not_found);
  EXPECT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), Errc::not_found);
  EXPECT_EQ(errc_name(s.code()), "not_found");
}

TEST(Result, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(7), 42);
}

TEST(Result, HoldsError) {
  Result<int> r(Errc::no_space);
  EXPECT_FALSE(r.is_ok());
  EXPECT_EQ(r.code(), Errc::no_space);
  EXPECT_EQ(r.value_or(7), 7);
}

TEST(Result, AssignOrReturnPropagates) {
  auto inner = [](bool fail) -> Result<int> {
    if (fail) return Errc::io;
    return 5;
  };
  auto outer = [&](bool fail) -> Result<int> {
    SIMURGH_ASSIGN_OR_RETURN(int v, inner(fail));
    return v + 1;
  };
  EXPECT_EQ(*outer(false), 6);
  EXPECT_EQ(outer(true).code(), Errc::io);
}

TEST(Hash, Fnv1aIsStable) {
  // Known-answer: layouts on media depend on this value never changing.
  EXPECT_EQ(fnv1a64("hello"), 0xa430d84680aabd0bull);
  EXPECT_NE(fnv1a64("hello"), fnv1a64("hellp"));
}

TEST(Hash, Mix64SpreadsBits) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 1000; ++i) seen.insert(mix64(i));
  EXPECT_EQ(seen.size(), 1000u);
}

// Known answers for both CRC32C paths: the runtime dispatch and the
// slice-by-8 fallback.
void expect_crc32c(const void* data, std::size_t n, std::uint32_t want) {
  EXPECT_EQ(crc32c(data, n), want) << "n=" << n;
  EXPECT_EQ(~detail::crc32c_sw(data, n, ~0u), want) << "n=" << n;
}

TEST(Crc32c, Rfc3720KnownAnswers) {
  // RFC 3720 section B.4, plus the catalogue check value of "123456789".
  unsigned char b[32];
  std::memset(b, 0x00, sizeof b);
  expect_crc32c(b, sizeof b, 0x8a9136aau);
  std::memset(b, 0xff, sizeof b);
  expect_crc32c(b, sizeof b, 0x62a8ab43u);
  for (unsigned i = 0; i < sizeof b; ++i) b[i] = static_cast<unsigned char>(i);
  expect_crc32c(b, sizeof b, 0x46dd794eu);
  for (unsigned i = 0; i < sizeof b; ++i)
    b[i] = static_cast<unsigned char>(31 - i);
  expect_crc32c(b, sizeof b, 0x113fdb5cu);
  expect_crc32c("123456789", 9, 0xe3069283u);
}

#if defined(__x86_64__)
TEST(Crc32c, HardwareMatchesSoftwareForEveryLengthAndAlignment) {
  if (!__builtin_cpu_supports("sse4.2")) GTEST_SKIP() << "no SSE4.2";
  // Past three 4 KiB blocks, so the three-stream stripes, their fold and
  // every serial tail length all run at every start alignment.
  constexpr std::size_t kMaxLen = 3 * 4096 + 17;
  std::vector<unsigned char> buf(kMaxLen + 8);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<unsigned char>(mix64(i));
  for (std::size_t off = 0; off < 8; ++off) {
    const auto seed = static_cast<std::uint32_t>(mix64(off));
    // The software CRC of the first n bytes, extended one byte per length.
    std::uint32_t want = seed;
    for (std::size_t n = 0; n <= kMaxLen; ++n) {
      ASSERT_EQ(detail::crc32c_hw(buf.data() + off, n, seed), want)
          << "n=" << n << " off=" << off;
      want = detail::crc32c_sw(buf.data() + off + n, 1, want);
    }
  }
  // The seed enters the first chain, so each seed folds different values.
  for (std::uint64_t i = 0; i < 4096; ++i) {
    const auto seed = static_cast<std::uint32_t>(mix64(i));
    ASSERT_EQ(detail::crc32c_hw(buf.data(), 4096, seed),
              detail::crc32c_sw(buf.data(), 4096, seed))
        << "seed=" << seed;
  }
}
#endif

TEST(Crc32c, SeedChainsConcatenation) {
  std::vector<unsigned char> buf(3 * 4096);
  for (std::size_t i = 0; i < buf.size(); ++i)
    buf[i] = static_cast<unsigned char>(mix64(i ^ 0x5a));
  const std::uint32_t whole = crc32c(buf.data(), buf.size());
  for (std::size_t cut : {0, 1, 7, 8, 1360, 4079, 4080, 4096, 8191, 12288})
    EXPECT_EQ(crc32c(buf.data() + cut, buf.size() - cut,
                     crc32c(buf.data(), cut)),
              whole)
        << "cut=" << cut;
}

TEST(Crc32c, PinnedBlockCrc) {
  // The CRC table on media holds these values: a change here would make
  // every image written by an earlier build fail verification.
  unsigned char blk[4096];
  for (std::size_t i = 0; i < sizeof blk; ++i)
    blk[i] = static_cast<unsigned char>(mix64(i));
  EXPECT_EQ(core::CrcTable::block_crc(blk), 0xf87ace44u);
  EXPECT_EQ(~detail::crc32c_sw(blk, sizeof blk, ~0u), 0xf87ace44u);
}

TEST(StripedCounter, ConcurrentAddsSumExactly) {
  common::StripedCounter c;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kAdds = 100000;
  static_assert(kThreads <= common::StripedCounter::kCells);
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t)
    ts.emplace_back([&] {
      for (std::uint64_t i = 0; i < kAdds; ++i) c.add();
    });
  for (auto& t : ts) t.join();
  EXPECT_EQ(c.load(), kThreads * kAdds);
}

TEST(StripedCounter, ResetGivesZero) {
  common::StripedCounter c;
  c.add(5);
  std::thread([&] { c.add(7); }).join();
  EXPECT_EQ(c.load(), 12u);
  c.reset();
  EXPECT_EQ(c.load(), 0u);
}

TEST(Rng, Deterministic) {
  Rng a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(r.below(17), 17u);
  EXPECT_EQ(r.below(0), 0u);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ZipfIsSkewedAndInRange) {
  Rng r(11);
  std::map<std::uint64_t, int> counts;
  const std::uint64_t n = 100;
  for (int i = 0; i < 20000; ++i) {
    const std::uint64_t v = r.zipf(n);
    ASSERT_LT(v, n);
    ++counts[v];
  }
  // Rank 0 must dominate the tail decisively under theta=0.99.
  EXPECT_GT(counts[0], counts[50] * 5);
}

TEST(Table, RendersAligned) {
  Table t("demo");
  t.header({"a", "long-col"});
  t.row({"1", "2"});
  t.row({"333", "4"});
  const std::string out = t.render();
  EXPECT_NE(out.find("== demo =="), std::string::npos);
  EXPECT_NE(out.find("long-col"), std::string::npos);
  EXPECT_NE(out.find("333"), std::string::npos);
}

TEST(Table, NumFormatsMagnitudes) {
  EXPECT_EQ(Table::num(12345678), "12.35M");
  EXPECT_EQ(Table::num(1234), "1.23k");
  EXPECT_EQ(Table::num(2.5e9), "2.50G");
  EXPECT_EQ(Table::num(0.5), "0.5000");
}

TEST(FailPoint, FiresOnceWhenArmed) {
  FailPoint::arm("t.point");
  EXPECT_THROW(FailPoint::hit("t.point"), CrashedException);
  // One-shot: second hit is a no-op.
  FailPoint::hit("t.point");
  FailPoint::disarm();
}

TEST(FailPoint, SkipCountDelaysFiring) {
  FailPoint::arm("t.skip", 2);
  FailPoint::hit("t.skip");
  FailPoint::hit("t.skip");
  EXPECT_THROW(FailPoint::hit("t.skip"), CrashedException);
  EXPECT_EQ(FailPoint::hits(), 3u);
}

TEST(FailPoint, OtherPointsUnaffected) {
  FailPoint::arm("t.a");
  FailPoint::hit("t.b");  // must not throw
  FailPoint::disarm();
}

// Regression: arm() used to zero a process-global hit counter, so a thread
// arming its own point concurrently with another thread's armed run would
// reset — and pollute — the other thread's count.  Both the armed state and
// the counter are thread-local now.
TEST(FailPoint, HitCountsAreThreadLocal) {
  constexpr int kHitsEach = 1000;
  std::atomic<bool> go{false};
  std::atomic<int> ready{0};
  auto worker = [&](std::string_view point, std::uint64_t* out) {
    ready.fetch_add(1);
    while (!go.load(std::memory_order_acquire)) {}
    for (int i = 0; i < kHitsEach; ++i) {
      // Re-arm every iteration: with the old global counter this reset the
      // other thread's tally mid-count.
      FailPoint::arm(point, /*skip=*/kHitsEach + 1);
      FailPoint::hit(point);
    }
    *out = FailPoint::hits();
    FailPoint::disarm();
  };
  std::uint64_t hits_a = 0, hits_b = 0;
  std::thread ta(worker, "t.tl.a", &hits_a);
  std::thread tb(worker, "t.tl.b", &hits_b);
  while (ready.load() != 2) {}
  go.store(true, std::memory_order_release);
  ta.join();
  tb.join();
  // Each thread re-armed before every hit, so its own count is exactly 1;
  // any cross-thread sharing would show the other thread's hits here.
  EXPECT_EQ(hits_a, 1u);
  EXPECT_EQ(hits_b, 1u);
  // And this thread's own armed state saw none of the workers' hits.
  FailPoint::arm("t.tl.main", /*skip=*/5);
  EXPECT_EQ(FailPoint::hits(), 0u);
  FailPoint::disarm();
}

// ---- lease locks (common/lease.h) ----

// The expiry rule on a synthetic clock: `since` is when the observer
// started watching, kL the lease.
constexpr std::uint64_t kL = 1'000'000;

TEST(Lease, ZeroOrStaleStampIsNotExpiredBeforeOneLeaseOfWatching) {
  const std::uint64_t since = 10 * kL;
  for (const std::uint64_t stamp : {std::uint64_t{0}, std::uint64_t{1},
                                    since - 2 * kL}) {
    EXPECT_FALSE(common::lease_expired(stamp, since, since, kL)) << stamp;
    EXPECT_FALSE(common::lease_expired(stamp, since, since + kL, kL))
        << stamp;
    // A holder that never stamps is presumed dead after one lease.
    EXPECT_TRUE(common::lease_expired(stamp, since, since + kL + 1, kL))
        << stamp;
  }
}

TEST(Lease, StampSeenWhileWatchingRestartsTheLease) {
  const std::uint64_t since = 10 * kL;
  const std::uint64_t stamp = since + kL / 2;
  EXPECT_FALSE(common::lease_expired(stamp, since, since + kL + 1, kL));
  EXPECT_TRUE(common::lease_expired(stamp, since, stamp + kL + 1, kL));
}

TEST(Lease, FutureStampDoesNotCountAsExpired) {
  const std::uint64_t now = 10 * kL;
  const std::uint64_t future = ~0ull >> 2;
  // Judged alone (since 0) or freshly watched, the old `now - stamp`
  // arithmetic wrapped around and read a future stamp as long expired.
  EXPECT_FALSE(common::lease_expired(now + 1, now, now, kL));
  EXPECT_FALSE(common::lease_expired(future, now - kL / 2, now, kL));
  // It proves nothing either: a whole lease of watching still expires it.
  EXPECT_TRUE(common::lease_expired(future, now - kL - 1, now, kL));
}

TEST(Lease, LockWaitsOutLiveHolderWithZeroStamp) {
  constexpr std::uint64_t kLease = 200'000'000;  // 200 ms
  constexpr std::uint64_t kHolder = 0x5eed;
  std::atomic<std::uint64_t> owner{kHolder};
  std::atomic<std::uint64_t> stamp{0};  // took the word, not stamped yet
  std::atomic<bool> released_own{false};
  std::thread holder([&] {
    std::this_thread::sleep_for(std::chrono::nanoseconds(kLease / 4));
    stamp.store(common::lease_now_ns(), std::memory_order_relaxed);
    std::this_thread::sleep_for(std::chrono::nanoseconds(kLease / 2));
    released_own = common::lease_unlock(owner, kHolder);
  });
  const std::uint64_t self = common::lease_self_token();
  EXPECT_FALSE(common::lease_lock(owner, stamp, self, kLease));
  holder.join();
  EXPECT_TRUE(released_own.load());
  EXPECT_TRUE(common::lease_unlock(owner, self));
}

TEST(Lease, LockStealsFromHolderThatNeverStampsAfterOneLease) {
  constexpr std::uint64_t kLease = 20'000'000;  // 20 ms
  std::atomic<std::uint64_t> owner{0xdead};
  std::atomic<std::uint64_t> stamp{0};
  const std::uint64_t t0 = common::lease_now_ns();
  EXPECT_TRUE(common::lease_lock(owner, stamp, common::lease_self_token(),
                                 kLease));
  EXPECT_GT(common::lease_now_ns() - t0, kLease);
  EXPECT_EQ(owner.load(), common::lease_self_token());
}

TEST(Lease, StolenFromHolderUnlockLeavesThiefsLockHeld) {
  constexpr std::uint64_t kStalled = 0xa1;
  constexpr std::uint64_t kThief = 0xb3;
  std::atomic<std::uint64_t> owner{kStalled};
  std::atomic<std::uint64_t> stamp{1};
  EXPECT_TRUE(common::lease_lock(owner, stamp, kThief, 2'000'000));
  // The stalled holder wakes up and releases: the thief must keep the word.
  EXPECT_FALSE(common::lease_unlock(owner, kStalled));
  EXPECT_EQ(owner.load(), kThief);
  EXPECT_TRUE(common::lease_unlock(owner, kThief));
  EXPECT_EQ(owner.load(), 0u);
}

TEST(Lease, WaitRestartsWhenTheHolderChanges) {
  constexpr std::uint64_t kLease = 2'000'000;  // 2 ms
  common::LeaseWait wait;
  EXPECT_FALSE(wait.expired(0xa1, 1, kLease));
  std::this_thread::sleep_for(std::chrono::nanoseconds(2 * kLease));
  // A new word or a new stamp is a sign of life: watch from scratch.
  EXPECT_FALSE(wait.expired(0xb3, 1, kLease));
  EXPECT_FALSE(wait.expired(0xb3, 2, kLease));
  std::this_thread::sleep_for(std::chrono::nanoseconds(2 * kLease));
  EXPECT_TRUE(wait.expired(0xb3, 2, kLease));
}

TEST(Lease, SweepReapsOnlySlotsWatchedUnchangedForOneLease) {
  constexpr std::uint64_t kLease = 2'000'000;  // 2 ms
  // Slot 0: a dead holder.  Slot 1: a live holder whose stamp is stale
  // when first seen and then refreshed.  Slot 2: free.
  std::uint64_t word[3] = {0xa1, 0xb3, 0};
  std::uint64_t stamp[3] = {1, 1, 0};
  common::LeaseSweep sweep;
  auto pass = [&](unsigned* pending) {
    return sweep.pass(
        3, kLease,
        [&](std::uint64_t i, std::uint64_t& w, std::uint64_t& s) {
          w = word[i];
          s = stamp[i];
          return w != 0;
        },
        [&](std::uint64_t i, std::uint64_t w) {
          if (word[i] != w) return false;
          word[i] = 0;
          return true;
        },
        pending);
  };
  unsigned pending = 0;
  EXPECT_EQ(pass(&pending), 0u);  // first sight only starts the watch
  EXPECT_EQ(pending, 2u);
  stamp[1] = common::lease_now_ns();
  std::this_thread::sleep_for(std::chrono::nanoseconds(2 * kLease));
  pending = 0;
  EXPECT_EQ(pass(&pending), 1u);
  EXPECT_EQ(word[0], 0u);
  EXPECT_EQ(word[1], 0xb3u);  // re-stamped between passes: watched anew
  EXPECT_EQ(pending, 1u);
}

TEST(Lease, SelfTokensAreNonzeroAndDistinctPerThread) {
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> tokens(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i)
    threads.emplace_back([&tokens, i] {
      tokens[i] = common::lease_self_token();
      EXPECT_EQ(tokens[i], common::lease_self_token());  // stable
    });
  for (auto& t : threads) t.join();
  const std::set<std::uint64_t> distinct(tokens.begin(), tokens.end());
  EXPECT_EQ(distinct.size(), tokens.size());
  for (const std::uint64_t t : tokens) EXPECT_NE(t, 0u);
}

}  // namespace
}  // namespace simurgh
