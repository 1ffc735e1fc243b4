// FileLockTable implementation (shared-DRAM runtime state).
#include "core/shm.h"

#include "common/hash.h"
#include "common/lease.h"

namespace simurgh::core {

using common::lease_now_ns;

namespace {
constexpr std::uint32_t kWriterBit = 0x8000'0000u;
}  // namespace

FileLockTable FileLockTable::format(nvmm::Device& shm, std::uint64_t off,
                                    std::uint64_t n_locks) {
  SIMURGH_CHECK((n_locks & (n_locks - 1)) == 0);  // power of two
  SIMURGH_CHECK(shm.size() >= off + sizeof(ShmHeader) +
                                  n_locks * sizeof(FileLock));
  FileLockTable t(shm, off);
  ShmHeader& h = t.header();
  h.n_locks = n_locks;
  h.registry_lock.store(0, std::memory_order_relaxed);
  h.registry_lock_stamp_ns.store(0, std::memory_order_relaxed);
  h.recovering.store(0, std::memory_order_relaxed);
  h.dirty_deaths.store(0, std::memory_order_relaxed);
  h.attach_counter.store(0, std::memory_order_relaxed);
  for (auto& m : h.mounts) {
    m.token.store(0, std::memory_order_relaxed);
    m.heartbeat_ns.store(0, std::memory_order_relaxed);
    m.attach_gen.store(0, std::memory_order_relaxed);
  }
  h.alloc_shared.reset();
  FileLock* ls = t.locks();
  for (std::uint64_t i = 0; i < n_locks; ++i) new (&ls[i]) FileLock();
  // Magic last: a concurrently attaching process treats the region as
  // formatted only once everything above is in place.
  std::atomic_thread_fence(std::memory_order_release);
  h.magic = kShmMagic;
  return t;
}

FileLockTable FileLockTable::attach(nvmm::Device& shm, std::uint64_t off) {
  FileLockTable t(shm, off);
  SIMURGH_CHECK(t.header().magic == kShmMagic);
  return t;
}

FileLock& FileLockTable::slot_for(std::uint64_t inode_off) {
  const std::uint64_t n = header().n_locks;
  FileLock* ls = locks();
  std::uint64_t idx = mix64(inode_off) & (n - 1);
  for (std::uint64_t probes = 0; probes < n; ++probes) {
    FileLock& l = ls[idx];
    const std::uint64_t key = l.inode_off.load(std::memory_order_acquire);
    if (key == inode_off) return l;
    if (key == 0) {
      std::uint64_t expected = 0;
      if (l.inode_off.compare_exchange_strong(expected, inode_off,
                                              std::memory_order_acq_rel))
        return l;
      if (expected == inode_off) return l;
    }
    idx = (idx + 1) & (n - 1);
  }
  // Table full: degrade to a single shared fallback slot (slot 0 keyed 0 is
  // never handed out above, so reuse it).  Correct, just slower.
  stats_->fallback_hits.fetch_add(1, std::memory_order_relaxed);
  return ls[0];
}

// NO_THREAD_SAFETY_ANALYSIS on the lease-lock bodies below: acquisition is
// a CAS protocol over the lock's raw atomic words (readers/writer counts,
// lease stamps), which the analysis cannot model — the ACQUIRE/RELEASE
// attributes on the declarations (shm.h) are the contract callers are
// checked against.  Expiry and backoff follow common/lease.h; a steal
// replaces whatever the word holds with our own acquisition.
void FileLockTable::lock_shared(FileLock& l) NO_THREAD_SAFETY_ANALYSIS {
  common::LeaseWait wait;
  for (;;) {
    std::uint32_t cur = l.word.load(std::memory_order_relaxed);
    if ((cur & kWriterBit) == 0) {
      if (l.word.compare_exchange_weak(cur, cur + 1,
                                       std::memory_order_acquire)) {
        l.stamp_ns.store(lease_now_ns(), std::memory_order_relaxed);
        return;
      }
      continue;
    }
    // Writer present: lease check (crashed writer recovery).
    if (wait.expired(cur, l.stamp_ns.load(std::memory_order_relaxed),
                     lease_ns_) &&
        l.word.compare_exchange_strong(cur, 1, std::memory_order_acq_rel)) {
      l.stamp_ns.store(lease_now_ns(), std::memory_order_relaxed);
      stats_->lease_steals.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    wait.backoff();
  }
}

void FileLockTable::unlock_shared(FileLock& l) NO_THREAD_SAFETY_ANALYSIS {
  l.word.fetch_sub(1, std::memory_order_release);
}

void FileLockTable::lock_exclusive(FileLock& l) NO_THREAD_SAFETY_ANALYSIS {
  common::LeaseWait wait;
  for (;;) {
    std::uint32_t cur = 0;
    if (l.word.compare_exchange_weak(cur, kWriterBit,
                                     std::memory_order_acquire)) {
      l.stamp_ns.store(lease_now_ns(), std::memory_order_relaxed);
      return;
    }
    if (cur != 0 &&
        wait.expired(cur, l.stamp_ns.load(std::memory_order_relaxed),
                     lease_ns_) &&
        l.word.compare_exchange_strong(cur, kWriterBit,
                                       std::memory_order_acq_rel)) {
      l.stamp_ns.store(lease_now_ns(), std::memory_order_relaxed);
      stats_->lease_steals.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    wait.backoff();
  }
}

void FileLockTable::unlock_exclusive(FileLock& l) NO_THREAD_SAFETY_ANALYSIS {
  l.word.store(0, std::memory_order_release);
}

void FileLockTable::reset_all() {
  const std::uint64_t n = header().n_locks;
  FileLock* ls = locks();
  for (std::uint64_t i = 0; i < n; ++i) {
    ls[i].word.store(0, std::memory_order_relaxed);
    ls[i].stamp_ns.store(0, std::memory_order_relaxed);
  }
}

unsigned FileLockTable::sweep_expired(unsigned* pending) {
  FileLock* ls = locks();
  return sweep_->pass(
      header().n_locks, lease_ns_,
      [&](std::uint64_t i, std::uint64_t& word, std::uint64_t& stamp) {
        word = ls[i].word.load(std::memory_order_relaxed);
        stamp = ls[i].stamp_ns.load(std::memory_order_relaxed);
        return word != 0;
      },
      [&](std::uint64_t i, std::uint64_t word) {
        auto w = static_cast<std::uint32_t>(word);
        if (!ls[i].word.compare_exchange_strong(w, 0,
                                                std::memory_order_acq_rel))
          return false;
        stats_->lease_steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      },
      pending);
}

// ---- MountRegistry ----

void MountRegistry::lock_registry(std::uint64_t self) const
    NO_THREAD_SAFETY_ANALYSIS {  // see FileLockTable::lock_shared
  ShmHeader& h = header();
  common::lease_lock(h.registry_lock, h.registry_lock_stamp_ns, self,
                     lease_ns());
}

void MountRegistry::unlock_registry(std::uint64_t self) const
    NO_THREAD_SAFETY_ANALYSIS {  // see FileLockTable::lock_shared
  common::lease_unlock(header().registry_lock, self);
}

bool MountRegistry::slot_live(const MountSlot& s,
                              std::uint64_t now) const noexcept {
  if (s.token.load(std::memory_order_acquire) == 0) return false;
  const std::uint64_t hb = s.heartbeat_ns.load(std::memory_order_relaxed);
  return now - hb <= lease_ns();
}

MountRegistry::Attachment MountRegistry::attach_mount() {
  ShmHeader& h = header();
  // Tokens need only be unique and nonzero; the shared counter gives that
  // deterministically across processes.
  const std::uint64_t token =
      2 * h.attach_counter.fetch_add(1, std::memory_order_relaxed) + 3;
  Attachment a;
  a.token = token;
  lock_registry(token);
  const std::uint64_t now = lease_now_ns();
  bool any_live = false;
  for (const MountSlot& s : h.mounts)
    if (slot_live(s, now)) any_live = true;
  a.first_in = !any_live;
  if (a.first_in) {
    // A new era: whatever slots remain belong to dead mounts of the old
    // one.  Their durable damage is the clean flag's problem (it is 0 if
    // anyone died mounted); their shm state is rebuilt below/by recovery.
    for (MountSlot& s : h.mounts) {
      s.token.store(0, std::memory_order_relaxed);
      s.heartbeat_ns.store(0, std::memory_order_relaxed);
    }
    h.dirty_deaths.store(0, std::memory_order_relaxed);
    // Hold the recovery token until the caller decides (run or skip);
    // later attachers wait on it, so the decision is race-free.
    h.recovering.store(token, std::memory_order_release);
  }
  unsigned idx = kMaxMountSlots;
  for (unsigned i = 0; i < kMaxMountSlots; ++i) {
    if (h.mounts[i].token.load(std::memory_order_relaxed) == 0) {
      idx = i;
      break;
    }
  }
  SIMURGH_CHECK(idx < kMaxMountSlots);  // > 64 concurrent mounts: unsupported
  h.mounts[idx].attach_gen.store(token, std::memory_order_relaxed);
  h.mounts[idx].heartbeat_ns.store(now, std::memory_order_relaxed);
  h.mounts[idx].token.store(token, std::memory_order_release);
  a.slot.store(idx, std::memory_order_relaxed);
  unlock_registry(token);
  return a;
}

void MountRegistry::detach_mount(const Attachment& a,
                                 const std::function<void()>& drain,
                                 const std::function<void()>& mark_clean) {
  ShmHeader& h = header();
  lock_registry(a.token);
  MountSlot& s = h.mounts[a.slot.load(std::memory_order_relaxed)];
  if (s.token.load(std::memory_order_relaxed) == a.token) {
    s.token.store(0, std::memory_order_relaxed);
    s.heartbeat_ns.store(0, std::memory_order_relaxed);
  }
  bool any = false;
  for (const MountSlot& m : h.mounts)
    if (m.token.load(std::memory_order_relaxed) != 0) any = true;
  if (!any && h.dirty_deaths.load(std::memory_order_relaxed) == 0) {
    if (drain) drain();
    // The drain may have outlived the lock lease, letting an attacher steal
    // the registry lock, see clean_shutdown == 0 and become first-in with
    // live operations — marking clean after that would make the NEXT crash
    // read as a clean image and skip recovery.  Refresh the stamp, then
    // gate the clean store on still owning the lock: the remaining window
    // is lease-sized from a fresh stamp, not drain-sized.
    if (h.registry_lock.load(std::memory_order_acquire) == a.token) {
      h.registry_lock_stamp_ns.store(lease_now_ns(),
                                     std::memory_order_relaxed);
      if (h.registry_lock.load(std::memory_order_acquire) == a.token &&
          mark_clean)
        mark_clean();
    }
  }
  unlock_registry(a.token);
}

bool MountRegistry::heartbeat(const Attachment& a) {
  MountSlot& s = header().mounts[a.slot.load(std::memory_order_relaxed)];
  if (s.token.load(std::memory_order_acquire) != a.token) return false;
  // Token-validated stamp: between the check above and the store below a
  // peer can reap this slot and a new mount can claim it, so a blind store
  // would refresh the new owner's lease.  Stamp by CAS, then re-check the
  // token; on a mismatch undo our stamp (if it is still ours) instead of
  // extending a foreign lease.
  std::uint64_t prev = s.heartbeat_ns.load(std::memory_order_relaxed);
  const std::uint64_t now = lease_now_ns();
  if (!s.heartbeat_ns.compare_exchange_strong(prev, now,
                                              std::memory_order_relaxed)) {
    // Concurrent writer — a reaper zeroing the slot, a claimant stamping
    // it, or a sibling thread of this mount heartbeating.  The token says
    // whose slot it is now; a sibling's fresher stamp needs no redo.
    return s.token.load(std::memory_order_acquire) == a.token;
  }
  if (s.token.load(std::memory_order_acquire) != a.token) {
    std::uint64_t mine = now;
    s.heartbeat_ns.compare_exchange_strong(mine, prev,
                                           std::memory_order_relaxed);
    return false;
  }
  return true;
}

void MountRegistry::reattach(Attachment& a) {
  ShmHeader& h = header();
  lock_registry(a.token);
  // A sibling thread of this mount (op path and heartbeat thread both
  // chase false reaps) may have reattached already; reuse its slot rather
  // than claiming a duplicate, which would double-count attached_mounts.
  unsigned idx = kMaxMountSlots;
  for (unsigned i = 0; i < kMaxMountSlots; ++i) {
    if (h.mounts[i].token.load(std::memory_order_relaxed) == a.token) {
      idx = i;
      break;
    }
  }
  if (idx < kMaxMountSlots) {
    h.mounts[idx].heartbeat_ns.store(lease_now_ns(),
                                     std::memory_order_relaxed);
  } else {
    for (unsigned i = 0; i < kMaxMountSlots; ++i) {
      if (h.mounts[i].token.load(std::memory_order_relaxed) == 0) {
        idx = i;
        break;
      }
    }
    SIMURGH_CHECK(idx < kMaxMountSlots);
    h.mounts[idx].attach_gen.store(a.token, std::memory_order_relaxed);
    h.mounts[idx].heartbeat_ns.store(lease_now_ns(),
                                     std::memory_order_relaxed);
    h.mounts[idx].token.store(a.token, std::memory_order_release);
  }
  a.slot.store(idx, std::memory_order_relaxed);
  unlock_registry(a.token);
}

unsigned MountRegistry::reap_dead(const Attachment& a) {
  ShmHeader& h = header();
  lock_registry(a.token);
  const std::uint64_t now = lease_now_ns();
  unsigned reaped = 0;
  for (MountSlot& s : h.mounts) {
    const std::uint64_t tok = s.token.load(std::memory_order_acquire);
    if (tok == 0 || tok == a.token) continue;
    if (now - s.heartbeat_ns.load(std::memory_order_relaxed) <= lease_ns())
      continue;
    s.token.store(0, std::memory_order_relaxed);
    s.heartbeat_ns.store(0, std::memory_order_relaxed);
    h.dirty_deaths.fetch_add(1, std::memory_order_relaxed);
    ++reaped;
  }
  unlock_registry(a.token);
  return reaped;
}

void MountRegistry::finish_recovery(const Attachment& a) {
  std::uint64_t expected = a.token;
  header().recovering.compare_exchange_strong(expected, 0,
                                              std::memory_order_acq_rel);
}

bool MountRegistry::wait_recovery_done(const Attachment& a) {
  ShmHeader& h = header();
  common::LeaseWait wait;  // for its backoff; liveness is the heartbeat's
  for (;;) {
    const std::uint64_t r = h.recovering.load(std::memory_order_acquire);
    if (r == 0) return false;
    if (r == a.token) return true;
    // Is the recovering mount still alive?
    const std::uint64_t now = lease_now_ns();
    bool live = false;
    for (const MountSlot& s : h.mounts) {
      if (s.token.load(std::memory_order_acquire) == r &&
          now - s.heartbeat_ns.load(std::memory_order_relaxed) <= lease_ns())
        live = true;
    }
    if (!live) {
      // Died mid-recovery: take the token over and redo it (the mark-and-
      // sweep is idempotent over a quiescent image).
      std::uint64_t expected = r;
      if (h.recovering.compare_exchange_strong(expected, a.token,
                                               std::memory_order_acq_rel))
        return true;
    }
    wait.backoff();
  }
}

bool MountRegistry::attached(std::uint64_t token) const {
  for (const MountSlot& s : header().mounts)
    if (s.token.load(std::memory_order_acquire) == token) return true;
  return false;
}

unsigned MountRegistry::attached_mounts() const {
  unsigned n = 0;
  for (const MountSlot& s : header().mounts)
    if (s.token.load(std::memory_order_acquire) != 0) ++n;
  return n;
}

std::uint64_t MountRegistry::dirty_deaths() const {
  return header().dirty_deaths.load(std::memory_order_acquire);
}

void MountRegistry::note_dirty_death(const Attachment& a) {
  header().dirty_deaths.fetch_add(1, std::memory_order_relaxed);
  (void)a;
}

}  // namespace simurgh::core
