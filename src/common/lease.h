// Lease locks (§4.2, DESIGN.md §9.6): every cross-process lock is a
// busy-wait word plus a lease stamp, and a waiter that sees the holder stay
// silent for a whole lease presumes it died, steals the lock and repairs.
// This header holds that rule once: one clock, one expiry test, one
// backoff.  lease_lock/lease_try_lock/lease_unlock run the whole protocol
// on owner-token words; other word shapes keep their own CAS and take
// LeaseWait; one-shot reapers use LeaseSweep.
#pragma once

#include <sched.h>
#include <time.h>

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/thread_annotations.h"

namespace simurgh::common {

inline std::uint64_t lease_now_ns() noexcept {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

// Nonzero owner token, distinct for every thread of a process (a counter in
// the low bits) and, with overwhelming probability, across processes (the
// process's first clock reading in the high bits).
inline std::uint64_t lease_self_token() noexcept {
  static std::atomic<std::uint64_t> next{0};
  thread_local const std::uint64_t token = [] {
    static const std::uint64_t process_salt = lease_now_ns() << 24;
    const std::uint64_t n = next.fetch_add(1, std::memory_order_relaxed);
    return (process_salt ^ (n << 1)) | 1;
  }();
  return token;
}

// The expiry rule: the lease runs from the later of the holder's stamp and
// `since`, when the observer started watching that holder (<= now; 0 judges
// the stamp alone).  A holder stamps just after its acquiring CAS, so a live
// holder's stamp may still be 0 or an earlier holder's; a stamp the clock
// has not reached yet (another boot's, or garbage) proves nothing either.
inline bool lease_expired(std::uint64_t stamp, std::uint64_t since,
                          std::uint64_t now, std::uint64_t lease_ns) noexcept {
  const std::uint64_t from = stamp > since && stamp <= now ? stamp : since;
  return now - from > lease_ns;
}

// One waiter's side of one acquisition: whom it has watched since when, and
// how long it has spun.  A new word or a new stamp is a sign of life and
// restarts the watch.
class LeaseWait {
 public:
  // Whether the holder seen as `word`, whose stamp the caller loaded just
  // before this call, stayed silent for a whole lease while we watched.
  bool expired(std::uint64_t word, std::uint64_t stamp,
               std::uint64_t lease_ns) noexcept {
    const std::uint64_t now = lease_now_ns();
    if (since_ == 0 || word != word_ || stamp != stamp_) {
      word_ = word;
      stamp_ = stamp;
      since_ = now;
    }
    return lease_expired(stamp, since_, now, lease_ns);
  }

  void backoff() noexcept {
    if (++spins_ < kPauseBurst) {
#if defined(__x86_64__)
      __builtin_ia32_pause();
#endif
    } else {
      ::sched_yield();
    }
  }

 private:
  static constexpr unsigned kPauseBurst = 64;
  std::uint64_t word_ = 0;
  std::uint64_t stamp_ = 0;
  std::uint64_t since_ = 0;
  unsigned spins_ = 0;
};

// Takes a free owner-token word without waiting.
inline bool lease_try_lock(std::atomic<std::uint64_t>& owner,
                           std::atomic<std::uint64_t>& stamp_ns,
                           std::uint64_t self) noexcept {
  std::uint64_t expected = 0;
  if (!owner.compare_exchange_strong(expected, self,
                                     std::memory_order_acquire))
    return false;
  stamp_ns.store(lease_now_ns(), std::memory_order_relaxed);
  return true;
}

// Spins until the word is ours; returns whether it was stolen from a holder
// presumed dead (the caller then repairs what that holder left behind).
inline bool lease_lock(std::atomic<std::uint64_t>& owner,
                       std::atomic<std::uint64_t>& stamp_ns,
                       std::uint64_t self, std::uint64_t lease_ns) noexcept {
  LeaseWait wait;
  for (;;) {
    std::uint64_t cur = 0;
    if (owner.compare_exchange_weak(cur, self, std::memory_order_acquire)) {
      stamp_ns.store(lease_now_ns(), std::memory_order_relaxed);
      return false;
    }
    if (cur != 0 &&
        wait.expired(cur, stamp_ns.load(std::memory_order_relaxed),
                     lease_ns) &&
        owner.compare_exchange_strong(cur, self, std::memory_order_acquire)) {
      stamp_ns.store(lease_now_ns(), std::memory_order_relaxed);
      return true;
    }
    wait.backoff();
  }
}

// Releases only while the word is still ours: a stalled (not dead) holder
// whose lock was stolen must not release the thief's critical section.
// Returns whether it released.
inline bool lease_unlock(std::atomic<std::uint64_t>& owner,
                         std::uint64_t self) noexcept {
  std::uint64_t expected = self;
  return owner.compare_exchange_strong(expected, 0,
                                       std::memory_order_release);
}

// Cross-pass memory of a one-shot reaper that visits every lock of a table
// once per pass: its "first failed attempt" at a held slot is the pass that
// first saw it held with the same word and stamp.  The mutex serialises
// concurrent passes (a heartbeat thread's and an explicit reap).
class LeaseSweep {
 public:
  // One pass over slots [0, n), ascending.  probe(i, word, stamp) loads
  // slot i's word, then its stamp, and returns false when the slot is free;
  // reap(i, word) releases a holder presumed dead if the slot still holds
  // `word`, returning whether it did.  Returns the slots reaped.  When
  // `pending` is given, adds the held slots whose stamp alone looks expired
  // but that have not yet been watched for a whole lease.
  template <typename Probe, typename Reap>
  unsigned pass(std::uint64_t n, std::uint64_t lease_ns, Probe&& probe,
                Reap&& reap, unsigned* pending = nullptr) EXCLUDES(mu_) {
    MutexLock lk(mu_);
    std::vector<Seen> watching;
    auto seen = seen_.cbegin();
    unsigned reaped = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t word = 0;
      std::uint64_t stamp = 0;
      if (!probe(i, word, stamp)) continue;
      const std::uint64_t now = lease_now_ns();
      while (seen != seen_.cend() && seen->idx < i) ++seen;
      const bool watched = seen != seen_.cend() && seen->idx == i &&
                           seen->word == word && seen->stamp == stamp;
      const std::uint64_t since = watched ? seen->since : now;
      if (lease_expired(stamp, since, now, lease_ns)) {
        if (reap(i, word)) ++reaped;
        continue;
      }
      watching.push_back({i, word, stamp, since});
      if (pending != nullptr && lease_expired(stamp, 0, now, lease_ns))
        ++*pending;
    }
    seen_ = std::move(watching);
    return reaped;
  }

 private:
  struct Seen {
    std::uint64_t idx, word, stamp, since;
  };
  Mutex mu_;
  std::vector<Seen> seen_ GUARDED_BY(mu_);  // held slots, ascending idx
};

}  // namespace simurgh::common
