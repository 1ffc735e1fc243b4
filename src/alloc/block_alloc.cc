#include "alloc/block_alloc.h"

#include <bit>
#include <bitset>
#include <vector>

#include "common/failpoint.h"
#include "common/thread_annotations.h"

namespace simurgh::alloc {

namespace {

constexpr std::uint64_t kMagic = 0x53494d5f424c4b32ull;  // "SIM_BLK2"
constexpr std::uint64_t kNoRun = ~0ull;

// Bits of map word `w` that fall inside block range [lo, hi).
std::uint64_t range_mask(std::uint64_t w, std::uint64_t lo,
                         std::uint64_t hi) noexcept {
  const std::uint64_t first = w * 64;
  std::uint64_t m = ~0ull;
  if (lo > first) m &= ~0ull << (lo - first);
  if (hi < first + 64) m &= (1ull << (hi - first)) - 1;
  return m;
}

// First run of >= n clear bits inside [from, to), or kNoRun.  Constant work
// per word (a carry from the words below plus an in-word shift-and search),
// so the cost is the range's length in words, whatever the bit pattern.
std::uint64_t find_run(const std::atomic<std::uint64_t>* map,
                       std::uint64_t from, std::uint64_t to,
                       std::uint64_t n) noexcept {
  std::uint64_t carry = 0;  // free blocks ending right below word w
  for (std::uint64_t w = from / 64; w * 64 < to; ++w) {
    const std::uint64_t f =
        ~map[w].load(std::memory_order_relaxed) & range_mask(w, from, to);
    if (f == 0) {
      carry = 0;
      continue;
    }
    if (carry + static_cast<std::uint64_t>(std::countr_one(f)) >= n)
      return w * 64 - carry;
    if (n <= 64) {
      std::uint64_t m = f;  // bit i survives iff bits i..i+n-1 are all free
      for (std::uint64_t len = 1; len < n; len *= 2)
        m &= m >> std::min(len, n - len);
      if (m != 0) return w * 64 + static_cast<std::uint64_t>(std::countr_zero(m));
    }
    carry = f == ~0ull ? carry + 64
                       : static_cast<std::uint64_t>(std::countl_one(f));
  }
  return kNoRun;
}

// First block in [b, to) whose bit is set, or `to`.
std::uint64_t next_used(const std::atomic<std::uint64_t>* map, std::uint64_t b,
                        std::uint64_t to) noexcept {
  for (std::uint64_t w = b / 64; w * 64 < to; ++w) {
    const std::uint64_t u =
        map[w].load(std::memory_order_relaxed) & range_mask(w, b, to);
    if (u != 0) return w * 64 + static_cast<std::uint64_t>(std::countr_zero(u));
  }
  return to;
}

// Sets (in_use) or clears the bits of blocks [b, b+n); returns how many
// already had that value (a double claim or free).  Atomic RMWs: a word
// straddling a segment boundary is shared with the neighbour segment.
std::uint64_t flip_bits(std::atomic<std::uint64_t>* map, std::uint64_t b,
                        std::uint64_t n, bool in_use) noexcept {
  std::uint64_t already = 0;
  for (std::uint64_t w = b / 64; w * 64 < b + n; ++w) {
    const std::uint64_t m = range_mask(w, b, b + n);
    const std::uint64_t old =
        in_use ? map[w].fetch_or(m, std::memory_order_relaxed)
               : map[w].fetch_and(~m, std::memory_order_relaxed);
    already += static_cast<std::uint64_t>(
        std::popcount(in_use ? old & m : ~old & m));
  }
  return already;
}

}  // namespace

BlockAllocator BlockAllocator::format(nvmm::Device& dev,
                                      std::uint64_t header_off,
                                      std::uint64_t data_off,
                                      std::uint64_t data_len,
                                      unsigned n_segments) {
  SIMURGH_CHECK(n_segments > 0 && n_segments <= kShmMaxSegments);
  SIMURGH_CHECK(data_off % kBlockSize == 0);
  auto& h = *reinterpret_cast<BlockAllocHeader*>(dev.at(header_off));
  h.magic = kMagic;
  h.n_segments = n_segments;
  h.data_off = data_off;
  h.n_blocks = data_len / kBlockSize;
  nvmm::persist_now(h);
  return attach(dev, header_off);
}

BlockAllocator BlockAllocator::attach(nvmm::Device& dev,
                                      std::uint64_t header_off) {
  const auto& h = *reinterpret_cast<BlockAllocHeader*>(dev.at(header_off));
  SIMURGH_CHECK(h.magic == kMagic);
  return BlockAllocator(dev, h);
}

// NO_THREAD_SAFETY_ANALYSIS on the lock-word bodies: acquisition is a
// lease CAS on seg.owner, which the analysis cannot track; the
// ACQUIRE/RELEASE/TRY_ACQUIRE declarations are what callers are checked
// against.
bool BlockAllocator::try_lock_segment(ShmSegment& seg)
    NO_THREAD_SAFETY_ANALYSIS {
  return common::lease_try_lock(seg.owner, seg.last_accessed_ns,
                                common::lease_self_token());
}

bool BlockAllocator::lock_segment(ShmSegment& seg) NO_THREAD_SAFETY_ANALYSIS {
  const bool stole = common::lease_lock(seg.owner, seg.last_accessed_ns,
                                        common::lease_self_token(), lease_ns_);
  if (stole) {
    // The dead holder may have flipped bits without moving the counter.
    stats_->lock_steals.fetch_add(1, std::memory_order_relaxed);
    recount(seg);
  }
  return stole;
}

bool BlockAllocator::steal_segment(ShmSegment& seg, std::uint64_t holder)
    NO_THREAD_SAFETY_ANALYSIS {  // see try_lock_segment
  return seg.owner.compare_exchange_strong(holder, common::lease_self_token(),
                                           std::memory_order_acq_rel);
}

void BlockAllocator::unlock_segment(ShmSegment& seg) noexcept
    NO_THREAD_SAFETY_ANALYSIS {  // see try_lock_segment
  common::lease_unlock(seg.owner, common::lease_self_token());
}

void BlockAllocator::recount(ShmSegment& seg) {
  const unsigned s = index_of(seg);
  const std::uint64_t lo = seg_lo(s), hi = seg_hi(s);
  std::uint64_t free = 0;
  for (std::uint64_t w = lo / 64; w * 64 < hi; ++w)
    free += static_cast<std::uint64_t>(std::popcount(
        ~map_[w].load(std::memory_order_relaxed) & range_mask(w, lo, hi)));
  seg.free_blocks.store(free, std::memory_order_relaxed);
}

std::optional<BlockAllocator::Run> BlockAllocator::take_run(
    ShmSegment& seg, std::uint64_t min_n, std::uint64_t max_n) {
  const unsigned s = index_of(seg);
  const std::uint64_t lo = seg_lo(s), hi = seg_hi(s);
  std::uint64_t rover = seg.rover.load(std::memory_order_relaxed);
  if (rover < lo || rover >= hi) rover = lo;
  // Next fit from the rover, then first fit from the segment start: each
  // word is read at most twice per size tried.
  auto first_fit = [&](std::uint64_t n) {
    const std::uint64_t b = find_run(map_, rover, hi, n);
    return b != kNoRun || rover == lo ? b : find_run(map_, lo, hi, n);
  };
  std::uint64_t b = first_fit(max_n), n = max_n;
  if (b == kNoRun && min_n < max_n && (b = first_fit(min_n)) != kNoRun)
    n = next_used(map_, b, std::min(hi, b + max_n)) - b;
  if (b == kNoRun) return std::nullopt;
  SIMURGH_CHECK(flip_bits(map_, b, n, /*in_use=*/true) == 0);
  // Dying here leaves the bits set and the counter stale: the lease thief
  // recounts, and the blocks — referenced by nothing — wait for recovery.
  SIMURGH_FAILPOINT("blockalloc.claim");
  seg.free_blocks.fetch_sub(n, std::memory_order_relaxed);
  seg.rover.store(b + n, std::memory_order_relaxed);
  return Run{data_off_ + b * kBlockSize, n};
}

Result<std::uint64_t> BlockAllocator::alloc(std::uint64_t n_blocks,
                                            std::uint64_t hint) {
  SIMURGH_CHECK(n_blocks > 0 && shared_ != nullptr);
  auto r = n_blocks <= kReserveServeMax ? alloc_reserved(n_blocks, hint)
                                        : alloc_exact(n_blocks, hint);
  if (r.is_ok()) stats_->allocs.fetch_add(1, std::memory_order_relaxed);
  return r;
}

Result<std::uint64_t> BlockAllocator::alloc_exact(std::uint64_t n,
                                                  std::uint64_t hint) {
  auto r = alloc_direct(n, n, hint);
  if (!r.is_ok()) return r.status();
  return r->off;
}

Result<BlockAllocator::Run> BlockAllocator::alloc_direct(std::uint64_t min_n,
                                                         std::uint64_t max_n,
                                                         std::uint64_t hint) {
  // Mount affinity: the bias rotates the walk so peers with similar hints
  // start on different segment locks; within one mount the hint still
  // clusters a file's blocks in one segment.
  const unsigned start = static_cast<unsigned>(
      (segment_bias_ + hint / kBlockSize) % n_segments_);
  // One walk: take each segment that is free right now (the "move to the
  // next segment if busy" rule), then wait only on the ones found busy.  A
  // counter below the request skips the segment without locking it.
  std::bitset<kShmMaxSegments> busy;
  for (unsigned i = 0; i < 2 * n_segments_; ++i) {
    const unsigned s = (start + i) % n_segments_;
    ShmSegment& seg = shared_->segments[s];
    if (i >= n_segments_) {
      if (!busy.test(s)) continue;
      lock_segment(seg);
    } else if (seg.free_blocks.load(std::memory_order_relaxed) < min_n) {
      continue;
    } else if (!try_lock_segment(seg)) {
      stats_->segment_hops.fetch_add(1, std::memory_order_relaxed);
      busy.set(s);
      continue;
    }
    const auto r = take_run(seg, min_n, max_n);
    unlock_segment(seg);
    if (r) return *r;
  }
  return Errc::no_space;
}

void BlockAllocator::attach_shared_state(ShmAllocShared* shared,
                                         std::uint64_t mount_token) noexcept {
  SIMURGH_CHECK(shared->map_words >= free_map_words(n_blocks_));
  shared_ = shared;
  map_ = shared->free_map();
  mount_token_ = mount_token;
  // Spread mounts across the segment ring (same mix as the reservation
  // home ranges so the whole allocator tier agrees on one affinity).
  segment_bias_ = static_cast<unsigned>(
      (mount_token * 0x9e3779b97f4a7c15ull >> 40) % n_segments_);
}

ShmReservation* BlockAllocator::shm_thread_slot() {
  // The binding (shared region → slot index) is thread-local DRAM; the slot
  // itself is shm.  A survivor that declared this mount dead may have freed
  // the slot behind our back, so every use revalidates {mount, thread}
  // under the slot lock and rebinds on mismatch (alloc_reserved).
  struct Binding {
    ShmAllocShared* shared;
    unsigned idx;
  };
  thread_local std::vector<Binding> bindings;
  const std::uint64_t self = common::lease_self_token();
  for (auto it = bindings.begin(); it != bindings.end(); ++it) {
    if (it->shared != shared_) continue;
    ShmReservation& slot = shared_->reservations[it->idx];
    const std::uint64_t owner = slot.mount.load(std::memory_order_acquire);
    if (slot.thread.load(std::memory_order_relaxed) == self) {
      if (owner == mount_token_) return &slot;
      // This thread's slot under a *sibling* mount of the same shm region
      // (one process, several FileSystem instances): keep that binding.
      if (owner != 0) continue;
    }
    bindings.erase(it);  // slot was lease-reclaimed; claim a fresh one
    break;
  }
  // Claim scan: start inside this mount's home range so concurrent mounts
  // probe (and CAS-collide over) disjoint slot ranges; wrap into foreign
  // ranges only once the home range is exhausted.
  const unsigned home_base =
      shm_reserve_home(mount_token_) * kShmReserveHomeSlots;
  unsigned probes = 0;
  for (unsigned j = 0; j < kShmReserveSlots; ++j) {
    const unsigned i = (home_base + j) % kShmReserveSlots;
    ShmReservation& slot = shared_->reservations[i];
    ++probes;
    const std::uint64_t owner = slot.mount.load(std::memory_order_relaxed);
    // Re-adopt a slot this thread already owns for this mount (the binding
    // was dropped, e.g. the thread alternated between two mounts of the
    // same shm region in one process) before burning a fresh one.
    const bool ours = owner == mount_token_ &&
                      slot.thread.load(std::memory_order_relaxed) == self;
    if (owner != 0 && !ours) continue;
    lock_reservation(slot, self, lease_ns_);
    const std::uint64_t owner2 = slot.mount.load(std::memory_order_relaxed);
    const bool ours2 = owner2 == mount_token_ &&
                       slot.thread.load(std::memory_order_relaxed) == self;
    if (owner2 == 0 || ours2) {
      if (owner2 == 0) {
        slot.thread.store(self, std::memory_order_relaxed);
        slot.dev_off.store(0, std::memory_order_relaxed);
        slot.n.store(0, std::memory_order_relaxed);
        slot.mount.store(mount_token_, std::memory_order_release);
      }
      unlock_reservation(slot, self);
      if (bindings.size() > 8) bindings.clear();  // stale-region hygiene
      bindings.push_back({shared_, i});
      stats_->reserve_slot_probes.fetch_add(probes,
                                            std::memory_order_relaxed);
      return &slot;
    }
    unlock_reservation(slot, self);
  }
  stats_->reserve_slot_probes.fetch_add(probes, std::memory_order_relaxed);
  return nullptr;  // table full: caller serves directly
}

Result<std::uint64_t> BlockAllocator::alloc_reserved(std::uint64_t n,
                                                     std::uint64_t hint) {
  const std::uint64_t self = common::lease_self_token();
  ShmReservation* res = shm_thread_slot();
  if (res == nullptr) return alloc_exact(n, hint);
  lock_reservation(*res, self, lease_ns_);
  if (res->mount.load(std::memory_order_relaxed) != mount_token_ ||
      res->thread.load(std::memory_order_relaxed) != self) {
    // Lease-reclaimed between shm_thread_slot's check and our lock.  Serve
    // this call directly; the next call's revalidation rebinds.
    unlock_reservation(*res, self);
    return alloc_exact(n, hint);
  }
  if (res->n.load(std::memory_order_relaxed) >= n) {
    const std::uint64_t off = res->dev_off.load(std::memory_order_relaxed);
    res->dev_off.store(off + n * kBlockSize, std::memory_order_relaxed);
    res->n.fetch_sub(n, std::memory_order_relaxed);
    unlock_reservation(*res, self);
    stats_->reserve_hits.fetch_add(1, std::memory_order_relaxed);
    return off;
  }
  // Return the tail we cannot serve from (the next chunk is not contiguous
  // with it), then refill.  free() nests segment locks inside the slot
  // lock; nothing takes a slot lock while holding a segment lock.
  const std::uint64_t tail_n = res->n.load(std::memory_order_relaxed);
  if (tail_n > 0) {
    const std::uint64_t tail_off =
        res->dev_off.load(std::memory_order_relaxed);
    res->n.store(0, std::memory_order_relaxed);
    free(tail_off, tail_n);
    stats_->reserve_drains.fetch_add(1, std::memory_order_relaxed);
  }
  // Refill with the slot lock dropped: carving the chunk spins on segment
  // locks, and a short slot lease must not expire around that wait.
  unlock_reservation(*res, self);
  auto c = alloc_direct(n, kReserveChunk, hint);
  if (!c.is_ok()) return c.status();
  const std::uint64_t rest = c->n - n;
  lock_reservation(*res, self, lease_ns_);
  if (res->mount.load(std::memory_order_relaxed) == mount_token_ &&
      res->thread.load(std::memory_order_relaxed) == self &&
      res->n.load(std::memory_order_relaxed) == 0) {
    res->dev_off.store(c->off + n * kBlockSize, std::memory_order_relaxed);
    res->n.store(rest, std::memory_order_relaxed);
    unlock_reservation(*res, self);
    stats_->reserve_refills.fetch_add(1, std::memory_order_relaxed);
    return c->off;
  }
  // Lost the slot mid-refill (lease reclaim): keep the first n blocks for
  // the caller, give the remainder straight back.
  unlock_reservation(*res, self);
  if (rest > 0) free(c->off + n * kBlockSize, rest);
  return c->off;
}

std::uint64_t BlockAllocator::reclaim_mount_reservations(
    const std::function<bool(std::uint64_t)>& match) {
  if (shared_ == nullptr) return 0;
  std::uint64_t blocks = 0;
  const std::uint64_t self = common::lease_self_token();
  for (unsigned i = 0; i < kShmReserveSlots; ++i) {
    ShmReservation& slot = shared_->reservations[i];
    const std::uint64_t owner = slot.mount.load(std::memory_order_acquire);
    if (owner == 0 || !match(owner)) continue;
    lock_reservation(slot, self, lease_ns_);
    const std::uint64_t owner2 = slot.mount.load(std::memory_order_relaxed);
    if (owner2 == 0 || !match(owner2)) {
      unlock_reservation(slot, self);
      continue;
    }
    const std::uint64_t off = slot.dev_off.load(std::memory_order_relaxed);
    const std::uint64_t len = slot.n.load(std::memory_order_relaxed);
    slot.n.store(0, std::memory_order_relaxed);
    slot.dev_off.store(0, std::memory_order_relaxed);
    slot.thread.store(0, std::memory_order_relaxed);
    slot.mount.store(0, std::memory_order_release);
    unlock_reservation(slot, self);
    if (len > 0) {
      free(off, len);
      blocks += len;
      stats_->reserve_drains.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return blocks;
}

unsigned BlockAllocator::reap_expired_segment_locks(unsigned* pending) {
  if (shared_ == nullptr) return 0;
  return reap_sweep_->pass(
      n_segments_, lease_ns_,
      [&](std::uint64_t s, std::uint64_t& owner, std::uint64_t& stamp) {
        const ShmSegment& seg = shared_->segments[s];
        owner = seg.owner.load(std::memory_order_relaxed);
        stamp = seg.last_accessed_ns.load(std::memory_order_relaxed);
        return owner != 0;
      },
      [&](std::uint64_t s, std::uint64_t owner) {
        // Steal, recount, release: the holder died inside take_run or
        // free, whose bit flips may have outrun the counter (the blocks a
        // half-finished claim set stay in use until recovery).
        ShmSegment& seg = shared_->segments[s];
        if (!steal_segment(seg, owner)) return false;
        recount(seg);
        unlock_segment(seg);
        stats_->lock_steals.fetch_add(1, std::memory_order_relaxed);
        return true;
      },
      pending);
}

void BlockAllocator::free(std::uint64_t block_off, std::uint64_t n_blocks) {
  SIMURGH_CHECK(n_blocks > 0 && shared_ != nullptr);
  // A run may span segments: extent maps merge adjacent runs that two
  // segments handed out.  Each part goes back under its own segment lock.
  std::uint64_t b = (block_off - data_off_) / kBlockSize;
  const std::uint64_t end = b + n_blocks;
  SIMURGH_CHECK(end <= n_blocks_);
  while (b < end) {
    const unsigned s = static_cast<unsigned>(b / per_seg_);
    const std::uint64_t n = std::min(end, seg_hi(s)) - b;
    ShmSegment& seg = shared_->segments[s];
    lock_segment(seg);
    const std::uint64_t double_freed = flip_bits(map_, b, n, /*in_use=*/false);
    seg.free_blocks.fetch_add(n, std::memory_order_relaxed);
    unlock_segment(seg);
    SIMURGH_CHECK(double_freed == 0);
    b += n;
  }
}

void BlockAllocator::drain_reservations(bool drain_all) {
  // Own slots always; every claimed slot when last-out sweeps stragglers.
  reclaim_mount_reservations(
      [&](std::uint64_t tok) { return drain_all || tok == mount_token_; });
}

void BlockAllocator::invalidate_reservations() noexcept {
  if (shared_ == nullptr) return;
  // Forget the ranges but keep slot claims: live peer threads rebind via
  // revalidation; the caller is about to rebuild the free map.
  const std::uint64_t self = common::lease_self_token();
  for (unsigned i = 0; i < kShmReserveSlots; ++i) {
    ShmReservation& slot = shared_->reservations[i];
    lock_reservation(slot, self, lease_ns_);
    slot.n.store(0, std::memory_order_relaxed);
    unlock_reservation(slot, self);
  }
}

std::uint64_t BlockAllocator::reserved_unused_blocks() const noexcept {
  if (shared_ == nullptr) return 0;
  // Derived from the slots instead of a shared hot-path counter; exact
  // whenever no reservation is mid-refill (every accounting caller).
  std::uint64_t total = 0;
  for (const ShmReservation& slot : shared_->reservations)
    total += slot.n.load(std::memory_order_acquire);
  return total;
}

void BlockAllocator::for_each_reservation(
    const std::function<void(std::uint64_t, std::uint64_t)>& fn) const {
  if (shared_ == nullptr) return;
  const std::uint64_t self = common::lease_self_token();
  for (unsigned i = 0; i < kShmReserveSlots; ++i) {
    ShmReservation& slot = shared_->reservations[i];
    lock_reservation(slot, self, lease_ns_);
    const std::uint64_t len = slot.n.load(std::memory_order_relaxed);
    if (len > 0) fn(slot.dev_off.load(std::memory_order_relaxed), len);
    unlock_reservation(slot, self);
  }
}

std::uint64_t BlockAllocator::free_blocks() const noexcept {
  if (shared_ == nullptr) return 0;
  std::uint64_t total = 0;
  for (unsigned s = 0; s < n_segments_; ++s)
    total += shared_->segments[s].free_blocks.load(std::memory_order_relaxed);
  // Reserved-but-unused blocks are still free space — they are just parked
  // in a thread's shm reservation slot rather than clear in the map.
  return total + reserved_unused_blocks();
}

void BlockAllocator::rebuild_free_map(const std::uint64_t* used)
    NO_THREAD_SAFETY_ANALYSIS {
  // Quiescent by contract (recovery runs single-threaded behind the
  // recovering token; a clean first-in mount loads before any peer may
  // attach), so the segment locks are reset rather than taken.
  SIMURGH_CHECK(shared_ != nullptr);
  // Reservations reference blocks `used` leaves clear (no inode references
  // them); forget them so nothing double-hands them out afterwards.
  invalidate_reservations();
  const std::uint64_t words = free_map_words(n_blocks_);
  for (std::uint64_t w = 0; w < words; ++w) {
    // Bits past the last block read as in use so no scan returns them.
    const std::uint64_t beyond = ~range_mask(w, 0, n_blocks_);
    map_[w].store((used != nullptr ? used[w] : 0) | beyond,
                  std::memory_order_relaxed);
  }
  for (unsigned s = 0; s < n_segments_; ++s) {
    ShmSegment& seg = shared_->segments[s];
    seg.owner.store(0, std::memory_order_relaxed);
    seg.last_accessed_ns.store(0, std::memory_order_relaxed);
    seg.rover.store(seg_lo(s), std::memory_order_relaxed);
    recount(seg);
  }
  std::atomic_thread_fence(std::memory_order_release);
}

void BlockAllocator::save_free_map(std::uint64_t snap_off) const {
  const std::uint64_t words = free_map_words(n_blocks_);
  auto* out = reinterpret_cast<std::uint64_t*>(dev_->at(snap_off));
  for (std::uint64_t w = 0; w < words; ++w)
    out[w] = map_[w].load(std::memory_order_relaxed);
  nvmm::persist(out, words * sizeof(std::uint64_t));
  nvmm::fence();
}

void BlockAllocator::for_each_free_run(
    const std::function<void(unsigned, std::uint64_t, std::uint64_t)>& fn)
    const {
  for (unsigned s = 0; s < n_segments_; ++s) {
    const std::uint64_t hi = seg_hi(s);
    for (std::uint64_t b = seg_lo(s); (b = find_run(map_, b, hi, 1)) != kNoRun;) {
      const std::uint64_t end = next_used(map_, b, hi);
      fn(s, data_off_ + b * kBlockSize, end - b);
      b = end;
    }
  }
}

}  // namespace simurgh::alloc
