// Segmented concurrent block allocator (§4.2 "Block allocation").
//
// The data area is divided into `2 x n_cores` segments, each owning a
// contiguous block range, so concurrent threads rarely collide
// (Hoard-style).  Each segment is guarded by a lease lock (common/lease.h):
// a waiter that sees the holder silent for a whole lease concludes it
// crashed and steals the lock — the paper's decentralized crash rule.
//
// Free space is a bitmap in the shared-DRAM device (alloc/shm_state.h), one
// bit per block, set while the block is in use.  A free clears bits; an
// allocation scans the segment's words from a per-segment rover for the
// first clear run that fits, at a cost bounded by the segment's size in
// words however fragmented it is.  Nothing on either path is persisted:
// recovery rebuilds the map from reachability, the last clean unmount
// snapshots it to NVMM for the next clean mount, and a lease thief
// recounts the stolen segment's counter from its bits.
//
// Allocation starts at segment `(hint / align) % n_segments` so blocks of
// one file cluster in one segment and files spread across segments; a busy
// segment is skipped in favor of the next (the contention-avoidance hop).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>

#include "alloc/shm_state.h"
#include "common/lease.h"
#include "common/status.h"
#include "nvmm/device.h"
#include "nvmm/persist.h"
#include "nvmm/pptr.h"

namespace simurgh::alloc {

constexpr std::uint64_t kBlockSize = 4096;

// Persistent allocator header (lives where the caller says, typically right
// after the superblock).  Geometry only: free space is volatile.
struct BlockAllocHeader {
  std::uint64_t magic = 0;
  std::uint64_t n_segments = 0;
  std::uint64_t data_off = 0;   // first block, device offset
  std::uint64_t n_blocks = 0;   // total blocks in the data area
};

// Per-process DRAM counters, bumped relaxed (lost increments acceptable).
struct BlockAllocStats {
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> segment_hops{0};  // busy-segment skips
  std::atomic<std::uint64_t> lock_steals{0};   // expired leases taken over
  std::atomic<std::uint64_t> reserve_hits{0};     // served without any lock
  std::atomic<std::uint64_t> reserve_refills{0};  // chunk carves
  std::atomic<std::uint64_t> reserve_drains{0};   // remainders returned
  // Slots probed claiming/rebinding a thread slot (shm_thread_slot); scans
  // near kShmReserveHomeSlots mean claims spill out of the home range.
  std::atomic<std::uint64_t> reserve_slot_probes{0};
};

class BlockAllocator {
 public:
  // Formats the allocator over device blocks [data_off, data_off+len) with
  // its persistent header at `header_off`.  A fresh format's map is filled
  // after attach_shared_state() by rebuild_free_map(nullptr).
  static BlockAllocator format(nvmm::Device& dev, std::uint64_t header_off,
                               std::uint64_t data_off, std::uint64_t data_len,
                               unsigned n_segments);
  // Attaches to an already formatted allocator (normal mount).
  static BlockAllocator attach(nvmm::Device& dev, std::uint64_t header_off);

  // Allocates `n_blocks` contiguous blocks; returns the first one's device
  // offset.  `hint` (typically the file's inode offset) picks the segment.
  Result<std::uint64_t> alloc(std::uint64_t n_blocks, std::uint64_t hint);

  // Returns blocks to the segments that own their address range.
  void free(std::uint64_t block_off, std::uint64_t n_blocks);

  [[nodiscard]] std::uint64_t free_blocks() const noexcept;
  [[nodiscard]] unsigned n_segments() const noexcept { return n_segments_; }
  [[nodiscard]] std::uint64_t data_off() const noexcept { return data_off_; }
  [[nodiscard]] std::uint64_t n_blocks_total() const noexcept {
    return n_blocks_;
  }

  // Lease after which a lock holder counts as crashed.  Short values are
  // used by the crash tests; production default is 100 ms.
  void set_lease_ns(std::uint64_t ns) noexcept { lease_ns_ = ns; }

  BlockAllocStats& stats() noexcept { return *stats_; }

  // ---- per-thread block reservations (data-path fast lane) ----
  //
  // Small allocations (≤ kReserveServeMax blocks) are served from a
  // per-thread chunk carved under ONE segment-lock acquisition and handed
  // out in ascending address order (so consecutive appends of one thread
  // form one extent per chunk).  A chunk is kReserveChunk blocks, or, in a
  // segment with no such run left, the first run that fits the request,
  // capped at kReserveChunk.  Larger requests and frees go direct.
  //
  // Every reservation is a fixed shm slot (alloc/shm_state.h) stamped with
  // the owning mount's token, so mounts share the accounting and a
  // survivor returns a dead mount's remainders to the map without a
  // remount (reclaim_mount_reservations).  After a crash, recovery's
  // rebuild_free_map returns them: no inode references those blocks.
  static constexpr std::uint64_t kReserveChunk = 64;  // 256 KB
  static constexpr std::uint64_t kReserveServeMax = 8;
  static_assert(kReserveServeMax < kReserveChunk);

  // Binds the allocator to the shm allocator block (in the shm device's
  // header; its free map must cover this allocator's blocks) and tags
  // every future carve with `mount_token`.  Required before any alloc().
  void attach_shared_state(ShmAllocShared* shared,
                           std::uint64_t mount_token) noexcept;

  // Survivor-side reclaim: frees every claimed shm reservation slot whose
  // owning mount `match(token)` names (its process is gone).  Returns the
  // number of blocks returned to the free map.
  std::uint64_t reclaim_mount_reservations(
      const std::function<bool(std::uint64_t)>& match);

  // Survivor-side reclaim: steals, recounts and releases every segment
  // lock that stayed unchanged for a whole lease across passes (eager form
  // of the steal in lock_segment).  Returns locks reclaimed; adds to
  // `pending` the stale-stamped locks still watched.
  unsigned reap_expired_segment_locks(unsigned* pending = nullptr);

  // Clean shutdown: returns the unused remainder of every slot THIS mount
  // owns (slots of its exited threads too) to the free map; last-out
  // sweeps every mount's stragglers with drain_all=true.
  void drain_reservations(bool drain_all = false);
  // Blocks carved into reservations but not yet handed out; counted as free
  // by free_blocks() so accounting stays exact.
  [[nodiscard]] std::uint64_t reserved_unused_blocks() const noexcept;
  // Walks every reservation's unused remainder: fn(dev_off, n_blocks).
  // Each reservation is briefly locked; for quiescent inspection (fsck).
  void for_each_reservation(
      const std::function<void(std::uint64_t, std::uint64_t)>& fn) const;

  // ---- whole-map transitions (quiescent callers) ----
  //
  // Installs the free map from `used`, laid out like the map itself (bit b
  // set iff data block b is in use; nullptr: nothing in use, a fresh
  // format), forgets every reservation, resets the segment locks and
  // rovers and recounts every segment.  Recovery passes its mark bitmap, a
  // clean mount the NVMM snapshot save_free_map() wrote.
  void rebuild_free_map(const std::uint64_t* used);
  // Copies the map to device offset `snap_off`, flushed and fenced.
  void save_free_map(std::uint64_t snap_off) const;

  // Walks every maximal free run, split at segment boundaries:
  // fn(segment_index, run_dev_off, n_blocks).  Unlocked; for fsck.
  void for_each_free_run(
      const std::function<void(unsigned, std::uint64_t, std::uint64_t)>& fn)
      const;

  // Free-block counter of one segment (fsck cross-checks it against the
  // clear bits of the segment's map range).
  [[nodiscard]] std::uint64_t segment_free_blocks(unsigned s) const noexcept {
    return shared_->segments[s].free_blocks.load(std::memory_order_acquire);
  }

 private:
  struct Run {  // blocks handed out by one segment
    std::uint64_t off;
    std::uint64_t n;
  };

  BlockAllocator(nvmm::Device& dev, const BlockAllocHeader& h)
      : dev_(&dev),
        data_off_(h.data_off),
        n_blocks_(h.n_blocks),
        per_seg_((h.n_blocks + h.n_segments - 1) / h.n_segments),
        n_segments_(static_cast<unsigned>(h.n_segments)),
        stats_(std::make_unique<BlockAllocStats>()) {}

  // Block-index range [lo, hi) of segment `s`.
  [[nodiscard]] std::uint64_t seg_lo(unsigned s) const noexcept {
    return std::min<std::uint64_t>(s * per_seg_, n_blocks_);
  }
  [[nodiscard]] std::uint64_t seg_hi(unsigned s) const noexcept {
    return std::min<std::uint64_t>(seg_lo(s) + per_seg_, n_blocks_);
  }
  [[nodiscard]] unsigned index_of(const ShmSegment& seg) const noexcept {
    return static_cast<unsigned>(&seg - shared_->segments);
  }

  // Spin-acquire with lease stealing (the capability transfers to the
  // thief, which recounts the segment's counter); true if stolen.
  bool lock_segment(ShmSegment& seg) ACQUIRE(seg);
  void unlock_segment(ShmSegment& seg) noexcept RELEASE(seg);
  bool try_lock_segment(ShmSegment& seg) TRY_ACQUIRE(true, seg);
  // Reaper's takeover: acquires only if `holder` still owns the word.
  bool steal_segment(ShmSegment& seg, std::uint64_t holder)
      TRY_ACQUIRE(true, seg);

  // Claims the first run of at least `min_n` clear bits of the segment —
  // preferring a whole `max_n` run — capped at `max_n` blocks.
  std::optional<Run> take_run(ShmSegment& seg, std::uint64_t min_n,
                              std::uint64_t max_n) REQUIRES(seg);
  // Re-derives free_blocks from the segment's map bits.
  void recount(ShmSegment& seg) REQUIRES(seg);

  // Direct path: one walk over the segments from the hint's segment.
  Result<Run> alloc_direct(std::uint64_t min_n, std::uint64_t max_n,
                           std::uint64_t hint);
  // Exactly `n_blocks` through the direct path (no reservation).
  Result<std::uint64_t> alloc_exact(std::uint64_t n_blocks,
                                    std::uint64_t hint);
  // Serves from this thread's shm slot, refilling it with one carve.
  Result<std::uint64_t> alloc_reserved(std::uint64_t n_blocks,
                                       std::uint64_t hint);
  // Claims (or revalidates) this thread's shm reservation slot; nullptr if
  // all slots are taken (caller falls back to the direct path).
  ShmReservation* shm_thread_slot();
  // Forgets every reservation without touching the map (rebuild_free_map).
  void invalidate_reservations() noexcept;

  nvmm::Device* dev_;
  // The persistent header's (immutable) geometry.
  std::uint64_t data_off_ = 0;
  std::uint64_t n_blocks_ = 0;
  std::uint64_t per_seg_ = 0;
  unsigned n_segments_ = 0;
  std::uint64_t lease_ns_ = 100'000'000;  // 100 ms
  // Heap-held so the allocator stays movable (atomics pin the struct).
  std::unique_ptr<BlockAllocStats> stats_;
  std::unique_ptr<common::LeaseSweep> reap_sweep_ =
      std::make_unique<common::LeaseSweep>();
  // Free map, segment locks, reservation slots (attach_shared_state).
  ShmAllocShared* shared_ = nullptr;
  std::atomic<std::uint64_t>* map_ = nullptr;
  std::uint64_t mount_token_ = 0;
  // Segment affinity: alloc_direct rotates each mount's walk by this bias
  // so mounts with similar hints start on different segment locks.
  unsigned segment_bias_ = 0;
};

}  // namespace simurgh::alloc
