// DRAM extent cache: a per-inode sorted extent index over the persistent
// extent map (inode.h), so the data path resolves logical block → device
// offset in O(log n) instead of re-scanning the inline array plus the NVMM
// spill chain per 4 KB block.
//
// Validation mirrors the decentralized lookup cache (lookup_cache.h): no
// invalidation messages, no shared locks on the read path.  Every cached
// view carries the even Inode::ext_epoch it was scanned at; a probe loads
// the inode's current epoch and trusts the view only on an exact match.
// Mutators bracket map changes with ExtentEpochGuard (odd while inside,
// next even value after), so a view can never validate across a mutation.
// Recycled inode offsets cannot replay an old epoch because new files are
// stamped from the mount-wide Superblock::file_epoch_gen and unlink pushes
// that counter past the dying file's final epoch (the same ABA closure as
// dir_epoch_gen).
//
// Views are immutable heap snapshots behind std::atomic<std::shared_ptr>,
// so a probe is one atomic load + two field compares and never observes a
// torn extent list; a stale view is simply rejected by the epoch compare.
//
// Lock discipline: no capabilities declared here on purpose
// (common/thread_annotations.h) — correctness rests on the epoch-validation
// protocol over atomics, not on mutual exclusion, so there is nothing for
// the thread-safety analysis to check; TSAN covers the protocol instead.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/inode.h"

namespace simurgh::core {

struct ExtentCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;   // no view, wrong inode, or stale epoch
  std::uint64_t fills = 0;    // views published after a cold scan
};

class ExtentCache {
 public:
  static constexpr std::size_t kDefaultSlots = 1024;  // power of two

  // Immutable snapshot of one file's extent map.
  struct View {
    std::uint64_t ino_off = 0;
    std::uint64_t epoch = 0;  // even Inode::ext_epoch the scan validated at
    std::vector<Extent> ext;  // sorted by file_block, non-overlapping
  };
  using ViewPtr = std::shared_ptr<const View>;

  explicit ExtentCache(std::size_t slots = kDefaultSlots);

  // The cached view for `ino_off`, iff present and filled at exactly
  // `epoch` (the caller's freshly loaded, even Inode::ext_epoch).
  [[nodiscard]] ViewPtr get(std::uint64_t ino_off,
                            std::uint64_t epoch) noexcept;
  void put(ViewPtr v) noexcept;

  // Drops the slot holding `ino_off` (unlink hygiene — epoch validation
  // already prevents stale hits; this just frees the memory eagerly).
  void invalidate(std::uint64_t ino_off) noexcept;
  void clear() noexcept;

  [[nodiscard]] ExtentCacheStats stats() const noexcept;
  void reset_stats() noexcept;
  [[nodiscard]] std::size_t slot_count() const noexcept { return n_slots_; }

 private:
  using Slot = std::atomic<ViewPtr>;
  [[nodiscard]] Slot& slot_for(std::uint64_t ino_off) noexcept {
    // Inode offsets are pool offsets with a 256-byte stride; spread them.
    return slots_[(ino_off * 0x9e3779b97f4a7c15ull >> 17) & (n_slots_ - 1)];
  }

  std::size_t n_slots_;
  std::unique_ptr<Slot[]> slots_;
  mutable std::atomic<std::uint64_t> hits_{0};
  mutable std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> fills_{0};
};

// Per-operation resolver: answers "longest mapped-or-hole run starting at
// block B" through the cache, falling back to the persistent map when no
// trustworthy view exists (cache disabled, epoch odd — i.e. a mutation in
// flight — or a racing fill).  Cold misses populate the cache on the way
// through.  Constructed on the stack by do_read/do_write; allocation-free
// on the hit path after the first probe.
class ExtentResolver {
 public:
  struct Run {
    std::uint64_t dev_off = 0;  // 0 = hole
    std::uint64_t n_blocks = 0;
  };

  // `build_views` — whether a cache miss triggers a cold scan + publish.
  // Read paths build (they re-profit immediately and amortize over later
  // reads); write paths only *consume* hits and otherwise fall back to the
  // direct probe: an allocating write bumps the epoch anyway, so a view
  // built on its behalf would be one full scan+sort+publish per append,
  // thrown away at the very next op — the cost, not the cache.
  ExtentResolver(ExtentCache* cache, nvmm::Device& dev,
                 alloc::ObjectAllocator& ext_pool, Inode& ino,
                 std::uint64_t ino_off, bool build_views = true)
      : cache_(cache),
        map_(dev, ext_pool, ino, ino_off),
        ino_(ino),
        ino_off_(ino_off),
        build_views_(build_views) {}

  // Longest run starting at `file_block`, clipped to `max_blocks`
  // (max_blocks >= 1).  A hole run extends to the next mapped extent.
  [[nodiscard]] Run run_at(std::uint64_t file_block,
                           std::uint64_t max_blocks);

  // The caller mutated the extent map (its ExtentEpochGuard has closed):
  // drop the local snapshot so the next run_at re-reads and re-publishes.
  void invalidate_snapshot() noexcept {
    view_.reset();
    probed_ = false;
  }

  [[nodiscard]] ExtentMap& map() noexcept { return map_; }

 private:
  [[nodiscard]] const ExtentCache::View* view();

  ExtentCache* cache_;
  ExtentMap map_;
  Inode& ino_;
  std::uint64_t ino_off_;
  ExtentCache::ViewPtr view_;
  bool probed_ = false;
  bool build_views_ = true;
};

}  // namespace simurgh::core
