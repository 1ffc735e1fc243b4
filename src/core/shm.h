// Per-file reader/writer locks in shared DRAM (§4.3 "Data operations").
//
// Simurgh keeps runtime coordination state that need not survive a reboot —
// per-file read/write locks — in a volatile shared-memory device mapped by
// every client process.  The table is open-addressed and keyed by inode
// offset (the inode's identity), with slots claimed by CAS; lock words are
// busy-wait reader/writer locks with a lease stamp so survivors can reset a
// lock whose holder died (the lease rule of common/lease.h, shared by every
// cross-process lock in the file system).
//
// Slots are never reclaimed while the shm region lives: the table is sized
// for the expected number of concurrently *active* files, and a full table
// degrades to a shared fallback lock rather than failing.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>

#include "common/lease.h"
#include "common/thread_annotations.h"
#include "core/layout.h"

namespace simurgh::core {

// Per-process DRAM counters (lost increments acceptable, like
// BlockAllocStats).
struct FileLockStats {
  std::atomic<std::uint64_t> fallback_hits{0};  // full table → shared slot 0
  std::atomic<std::uint64_t> lease_steals{0};   // expired holders displaced
};

class FileLockTable {
 public:
  static FileLockTable format(nvmm::Device& shm, std::uint64_t off,
                              std::uint64_t n_locks);
  static FileLockTable attach(nvmm::Device& shm, std::uint64_t off);

  // Finds (or claims) the lock slot for `inode_off`.
  FileLock& slot_for(std::uint64_t inode_off);

  void lock_shared(FileLock& l) ACQUIRE_SHARED(l);
  void unlock_shared(FileLock& l) RELEASE_SHARED(l);
  void lock_exclusive(FileLock& l) ACQUIRE(l);
  void unlock_exclusive(FileLock& l) RELEASE(l);

  void set_lease_ns(std::uint64_t ns) noexcept { lease_ns_ = ns; }

  // Clears every lock (full-system recovery: all holders are gone).
  void reset_all();

  // Survivor-side reclaim: releases every held lock that stayed unchanged
  // for a whole lease across sweeps (common/lease.h; its holder died
  // mid-section, and the two-bit object protocol keeps whatever it was
  // doing recoverable).  Returns locks released.  Adds to `pending` the
  // stale-stamped locks still watched.
  unsigned sweep_expired(unsigned* pending = nullptr);

  FileLockStats& stats() noexcept { return *stats_; }

 private:
  FileLockTable(nvmm::Device& shm, std::uint64_t off)
      : shm_(&shm), off_(off) {}

  // The table may live at shm offset 0 (which pptr reserves as null), so it
  // is addressed through base() directly.
  [[nodiscard]] ShmHeader& header() const noexcept {
    return *reinterpret_cast<ShmHeader*>(shm_->base() + off_);
  }
  [[nodiscard]] FileLock* locks() const noexcept {
    return reinterpret_cast<FileLock*>(shm_->base() + off_ +
                                       sizeof(ShmHeader));
  }

  nvmm::Device* shm_;
  std::uint64_t off_;
  std::uint64_t lease_ns_ = 100'000'000;
  // Heap-held so the table stays movable.
  std::unique_ptr<FileLockStats> stats_ = std::make_unique<FileLockStats>();
  std::unique_ptr<common::LeaseSweep> sweep_ =
      std::make_unique<common::LeaseSweep>();
};

// Mount registry over the same ShmHeader (§4 "fully decentralized"):
// every FileSystem instance attached to a device pair claims one
// lease-stamped slot.  The first attacher in an era (no peer slot with a
// live heartbeat) owns the recovery decision; the last one out — and only
// with no dirty deaths in between — marks the superblock clean.  Survivors
// reap expired peers and reclaim their cross-process state without a
// remount.  All transitions are serialised by the registry lease lock
// (common/lease.h) so attach, detach and reap never interleave.
class MountRegistry {
 public:
  MountRegistry(nvmm::Device& shm, std::uint64_t off)
      : shm_(&shm), off_(off) {}

  struct Attachment {
    std::uint64_t token = 0;  // nonzero, unique per attach
    // The slot index moves when a falsely-reaped mount reattaches; the
    // background heartbeat thread and op threads both follow it, so it is
    // atomic (token and first_in never change after attach).
    std::atomic<unsigned> slot{0};
    bool first_in = false;

    Attachment() = default;
    Attachment(const Attachment& o) noexcept
        : token(o.token),
          slot(o.slot.load(std::memory_order_relaxed)),
          first_in(o.first_in) {}
    Attachment& operator=(const Attachment& o) noexcept {
      token = o.token;
      slot.store(o.slot.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
      first_in = o.first_in;
      return *this;
    }
  };

  // Claims a slot.  When no peer slot carries a live heartbeat, every dead
  // foreign slot is cleared, dirty_deaths is reset (a new era begins) and
  // the recovering token is set — the caller MUST call finish_recovery()
  // once its recovery decision (run it or skip it) completes.
  Attachment attach_mount();

  // Releases the slot.  When no other slot remains claimed and no mount
  // died dirty this era, runs `drain` and then — only if this mount still
  // owns the registry lock afterwards — `mark_clean`.  The split matters: a
  // drain that outlives the lock lease lets an attaching process steal the
  // lock, observe clean_shutdown == 0 and become first-in, and a deferred
  // clean store landing after that would mis-describe the next crash as a
  // clean image.
  void detach_mount(const Attachment& a, const std::function<void()>& drain,
                    const std::function<void()>& mark_clean);

  // Refreshes the heartbeat; returns false if the slot no longer carries
  // our token (a peer lease-reaped us) — call reattach() then.  Lock-free
  // (token-validated CAS), so it is safe from any thread, including across
  // fork()ed children sharing the mount's slot.
  bool heartbeat(const Attachment& a);
  // Re-claims a slot after a false reap, keeping the token.
  void reattach(Attachment& a);

  // Reaps every foreign slot whose heartbeat lease expired: the slot is
  // cleared and dirty_deaths incremented.  Returns the number of victims.
  unsigned reap_dead(const Attachment& a);

  void finish_recovery(const Attachment& a);
  // Blocks until no recovery is in flight.  Returns true if the recovering
  // mount died and WE now hold the recovering token — the caller must run
  // recover() itself, then finish_recovery().
  bool wait_recovery_done(const Attachment& a);

  [[nodiscard]] bool attached(std::uint64_t token) const;
  [[nodiscard]] unsigned attached_mounts() const;
  [[nodiscard]] std::uint64_t dirty_deaths() const;
  void note_dirty_death(const Attachment& a);  // storm tests: mark our own

  // Atomic: the lease is read by the background heartbeat thread while
  // tests shrink it concurrently.
  void set_lease_ns(std::uint64_t ns) noexcept {
    lease_ns_.store(ns, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t lease_ns() const noexcept {
    return lease_ns_.load(std::memory_order_relaxed);
  }

 private:
  [[nodiscard]] ShmHeader& header() const noexcept {
    return *reinterpret_cast<ShmHeader*>(shm_->base() + off_);
  }
  void lock_registry(std::uint64_t self) const ACQUIRE(header());
  void unlock_registry(std::uint64_t self) const RELEASE(header());
  [[nodiscard]] bool slot_live(const MountSlot& s,
                               std::uint64_t now) const noexcept;

  nvmm::Device* shm_;
  std::uint64_t off_;
  std::atomic<std::uint64_t> lease_ns_{100'000'000};
};

// RAII guards.  A CrashedException models the holder dying, so during crash
// unwinding the guards deliberately leave the lock held — survivors must
// recover it through the lease mechanism, exactly as with a real process
// death.
class SCOPED_CAPABILITY SharedFileLock {
 public:
  SharedFileLock(FileLockTable& t, FileLock& l) ACQUIRE_SHARED(l)
      : t_(t), l_(l) {
    t_.lock_shared(l_);
  }
  // RELEASE unconditionally as far as the analysis is concerned: the
  // crash-unwinding skip models the holder *dying*, after which no code in
  // this process touches the guarded file again — survivors reclaim the
  // lock via its lease, outside any static scope.
  ~SharedFileLock() RELEASE() {
    if (std::uncaught_exceptions() == 0) t_.unlock_shared(l_);
  }
  SharedFileLock(const SharedFileLock&) = delete;
  SharedFileLock& operator=(const SharedFileLock&) = delete;

 private:
  FileLockTable& t_;
  FileLock& l_;
};

class SCOPED_CAPABILITY ExclusiveFileLock {
 public:
  ExclusiveFileLock(FileLockTable& t, FileLock& l) ACQUIRE(l)
      : t_(t), l_(l) {
    t_.lock_exclusive(l_);
  }
  // See ~SharedFileLock on the unconditional RELEASE annotation.
  ~ExclusiveFileLock() RELEASE() {
    if (std::uncaught_exceptions() == 0) t_.unlock_exclusive(l_);
  }
  ExclusiveFileLock(const ExclusiveFileLock&) = delete;
  ExclusiveFileLock& operator=(const ExclusiveFileLock&) = delete;

 private:
  FileLockTable& t_;
  FileLock& l_;
};

}  // namespace simurgh::core
