// Directory hash blocks and file entries (§4.3, Figs. 4-5).
//
// A directory is a chain of fixed-size hash blocks.  Each block holds
// kLines lines ("rows") of kSlotsPerLine slots; a name hashes to one line,
// and a lookup probes that line in every block of the chain.  The *first*
// block additionally carries, per line: a busy bit (the fine-grained
// busy-wait lock that makes shared-directory metadata ops scale) and a
// lease stamp for crashed-holder detection; plus a single log entry for
// cross-directory renames and a rename-in-progress marker.
//
// Slots pack a 16-bit tag of the name hash with the 48-bit file-entry
// offset, so negative probes rarely dereference entries.
//
// Consistency rules (what recovery relies on):
//  * A slot is published (store + persist) only after its file entry and
//    inode are fully persisted — Fig. 5a order.
//  * Deletion zeroes the entry before the slot, so a slot that points to a
//    zeroed/invalid entry marks an interrupted delete; the next accessor of
//    the line completes it — Fig. 5b.
//  * An intra-directory rename deliberately leaves the line "inconsistent"
//    (the entry's name hashes to a different line) between its steps 5-8;
//    that inconsistency plus the rename marker is the redo record — Fig. 5c.
//
// Giant directories: bucketed fan-out (DESIGN.md §10).  A directory whose
// chain outgrows a threshold is split once into 2^depth bucket chains,
// selected by hash bits independent of the line bits.  The first ("anchor")
// block persistently records the depth, the bucket-head pointers and a
// split-in-progress marker; each bucket head is an ordinary DirBlock whose
// busy word, lease stamps and epoch govern only that bucket, so mutations
// in different buckets take different locks and invalidate different
// lookup-cache entries.  The split migrates slot-by-slot under all 48
// anchor line locks with publish-then-clear ordering, so a crash at any
// point loses no entry and recovery can roll the split forward (depth
// published) or back (depth still 0).
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <string_view>

#include "common/hash.h"
#include "common/thread_annotations.h"
#include "core/inode.h"

namespace simurgh::core {

constexpr unsigned kMaxName = 255;
constexpr unsigned kLines = 48;
constexpr unsigned kSlotsPerLine = 8;

// Bucketed fan-out bounds: a directory splits at most once, from depth 0
// (a single chain) to at most kMaxBucketBits of additional hash bits.
constexpr unsigned kMaxBucketBits = 6;
constexpr unsigned kMaxDirBuckets = 1u << kMaxBucketBits;  // 64

// Cursor value meaning "iteration finished" for DirOps::list_at.
constexpr std::uint64_t kReaddirEnd = ~0ull;

// File entry: name plus the persistent pointer to its inode (Fig. 4).
//
// Lock-free probes read entries that a concurrent delete may be scrubbing,
// so every field a reader can race on is accessed atomically: name_len is a
// real atomic, and the name bytes go through byte-wise __atomic loads
// (plain movzbl on x86 — the atomicity is free, only the data-race-freedom
// matters).  Value validation makes half-scrubbed reads harmless: a reader
// that sees a partial name simply mismatches, and the slot's CAS protocol
// decides liveness.
struct FileEntry {
  nvmm::atomic_pptr<Inode> inode;
  std::atomic<std::uint32_t> flags{0};  // bit0: symlink ("link flag")
  std::atomic<std::uint16_t> name_len{0};
  char name[kMaxName + 1] = {};

  // Race-safe compare against a candidate name (lock-free probe path).
  [[nodiscard]] bool name_equals(std::string_view n) const noexcept {
    if (name_len.load(std::memory_order_acquire) != n.size()) return false;
    for (std::size_t i = 0; i < n.size(); ++i)
      if (__atomic_load_n(&name[i], __ATOMIC_RELAXED) != n[i]) return false;
    return true;
  }
  // Race-safe snapshot into `dst` (>= kMaxName + 1 bytes); returns the
  // length read.  A torn result is possible and fine: callers re-validate.
  std::uint16_t load_name(char* dst) const noexcept {
    const std::uint16_t len = name_len.load(std::memory_order_acquire);
    if (len > kMaxName) return 0;  // never stored; belt and braces
    for (std::uint16_t i = 0; i < len; ++i)
      dst[i] = __atomic_load_n(&name[i], __ATOMIC_RELAXED);
    dst[len] = '\0';
    return len;
  }
  // Only for entries no other thread can reach (pre-publication, locked
  // recovery): plain reads.
  [[nodiscard]] std::string_view name_view() const noexcept {
    return {name, name_len.load(std::memory_order_relaxed)};
  }
  void set_name(std::string_view n) noexcept;
};
static_assert(sizeof(FileEntry) <= kFileEntryPayload);

// Atomically zeroes a *visible* entry (delete step 3-4): word-wise atomic
// stores instead of memset, because lock-free probes may still be reading
// it.  Includes the persist; the fence is the release for the zero stores.
void scrub_entry(FileEntry* fe) noexcept;

constexpr std::uint32_t kEntrySymlink = 1u;

// Slot encoding: tag<<48 | offset.
struct DirSlot {
  std::atomic<std::uint64_t> v{0};

  static constexpr std::uint64_t pack(std::uint16_t tag,
                                      std::uint64_t off) noexcept {
    return (static_cast<std::uint64_t>(tag) << 48) | off;
  }
  static constexpr std::uint64_t off_of(std::uint64_t v) noexcept {
    return v & ((1ull << 48) - 1);
  }
  static constexpr std::uint16_t tag_of(std::uint64_t v) noexcept {
    return static_cast<std::uint16_t>(v >> 48);
  }
};

struct DirLine {
  DirSlot slots[kSlotsPerLine];
};
static_assert(sizeof(DirLine) == 64);

// Cross-directory rename log — one per directory, in the first block.
// Renames out of the directory take turns on it under the directory
// inode's exclusive file lock (Process::rename); one that finds it still
// armed replays it first (DirOps::replay_cross_log).
struct RenameLog {
  std::atomic<std::uint32_t> state{0};  // 0 idle, 1 pending (dirty)
  std::uint32_t _pad = 0;
  std::uint64_t dst_dir_inode = 0;   // destination directory inode offset
  std::uint64_t old_fentry = 0;      // entry being moved (in this dir)
  std::uint64_t new_fentry = 0;      // replacement entry (in dst dir)
  std::uint64_t replaced_inode = 0;  // inode displaced at the target name
};
static_assert(sizeof(RenameLog) == 40);

// The chain head is the capability for its per-line busy-word locks
// (thread_annotations.h pattern 2; zero layout impact).  Deliberately
// block-granular, not line-granular: the analysis has no way to spell "bit
// `ln` of this block's busy word", and several paths legitimately hold
// multiple lines of one block at once (lock_pair on one block, the
// splitter's all-48-lines sweep) — which a block-level SCOPED_CAPABILITY on
// LineLock would misread as double acquisition.  LineLock therefore stays
// un-annotated (see its comment for the full justification); the capability
// here documents the lock's identity for REQUIRES-style reasoning and for
// pmlint, and runtime enforcement stays with the lease stamps + TSAN.
struct CAPABILITY("dir_line_lease") DirBlock {
  nvmm::atomic_pptr<DirBlock> next;
  // ---- first block of a chain only ----
  std::atomic<std::uint64_t> busy{0};          // one bit per line
  std::atomic<std::uint32_t> rename_busy{0};   // intra-dir rename marker
  // Split-in-progress marker (persistent, anchor block only): armed after
  // the bucket heads are published and before `depth`, cleared only once
  // every legacy slot has migrated (a drain stalled by ENOSPC leaves it
  // armed; mutators and recovery retry).  While set, the legacy chain may
  // still hold entries and mutators serialize on the anchor line locks.
  std::atomic<std::uint32_t> split_state{0};
  // Mutation epoch for the DRAM lookup cache (lookup_cache.h): every
  // DirOps mutation increments it once before its first visible change and
  // once after its last.  Volatile semantics — it is never persisted and
  // its absolute value is meaningless across mounts; only shared-memory
  // visibility matters, so it lives here where all processes map it.
  // create_dir_block stamps it from Superblock::dir_epoch_gen (never 0), so
  // epoch values are unique across directory lifetimes at a recycled
  // offset; see DirOps::retire_dir_epoch.  On a bucket head this epoch
  // governs only that bucket's entries (per-bucket invalidation).
  std::atomic<std::uint64_t> epoch{0};
  RenameLog log;
  // Bucket fan-out depth (persistent, anchor block only): 0 = unsplit, d>0
  // means names route to bucket_heads[bucket_of(name, d)].  Published
  // (release + persist) strictly after split_state and the head pointers,
  // so any reader that observes d>0 also observes live heads and the
  // armed marker.
  std::atomic<std::uint64_t> depth{0};
  std::atomic<std::uint64_t> stamp_ns[kLines]; // line lease stamps
  // Bucket chain heads (persistent, anchor block only; null beyond
  // 2^depth).  Each head is a DirBlock whose busy/stamp_ns/epoch fields
  // serve that bucket alone.
  nvmm::atomic_pptr<DirBlock> bucket_heads[kMaxDirBuckets];
  // ---- all blocks ----
  DirLine lines[kLines];
};
static_assert(sizeof(DirBlock) <= kDirBlockPayload);

inline unsigned line_of(std::string_view name) noexcept {
  return static_cast<unsigned>(fnv1a64(name) % kLines);
}
inline std::uint16_t tag_of_name(std::string_view name) noexcept {
  return static_cast<std::uint16_t>(fnv1a64(name) >> 48);
}
// Bucket selection uses hash bits 16..16+depth, disjoint from the tag
// bits (top 16).  The line (whole hash mod 48) is NOT independent of the
// bucket — line_of consumes every bit, including these — but nothing
// relies on independence: each only needs to be well distributed, and
// fixing the bucket bits still leaves 58 varying bits spreading names
// across the 48 lines.
inline unsigned bucket_of_hash(std::uint64_t h, std::uint64_t depth) noexcept {
  return static_cast<unsigned>((h >> 16) & ((1ull << depth) - 1ull));
}
inline unsigned bucket_of(std::string_view name, std::uint64_t depth) noexcept {
  return bucket_of_hash(fnv1a64(name), depth);
}

class LineLock;

// All directory operations; shared by every Process of the mount.
// Stateless except for references to the device and pools, so one instance
// per file system serves all threads.
class DirOps {
 public:
  struct Pools {
    alloc::ObjectAllocator* fentry;
    alloc::ObjectAllocator* dirblock;
  };

  DirOps(nvmm::Device& dev, Pools pools) : dev_(dev), pools_(pools) {}

  // Lock-free lookup of `name`'s file entry.  `inode_out`, when given,
  // receives the inode offset the entry held during the same validated
  // probe: reading it from the entry afterwards could see a remove +
  // create that recycled the entry, i.e. a foreign inode.
  Result<std::uint64_t> lookup(Inode& dir, std::string_view name,
                               std::uint64_t* inode_out = nullptr) const;

  // Inserts `name` -> fentry_off (both already persisted by the caller,
  // Fig. 5a steps 1-2).  Fails with Errc::exists.
  Status insert(Inode& dir, std::string_view name, std::uint64_t fentry_off);

  // Removes `name`, returning the inode offset it referenced (Fig. 5b).
  Result<std::uint64_t> remove(Inode& dir, std::string_view name);

  // Intra-directory rename (Fig. 5c).  If `new_name` exists its inode is
  // displaced and returned so the caller can drop a link count.
  Result<std::uint64_t> rename_local(Inode& dir, std::string_view old_name,
                                     std::string_view new_name);

  // Cross-directory rename via the source directory's log entry (§4.3).
  // The caller serializes renames out of `src_dir` (Process::rename holds
  // the directory inode's exclusive file lock).
  Result<std::uint64_t> rename_cross(Inode& src_dir, std::string_view old_name,
                                     Inode& dst_dir,
                                     std::string_view new_name);

  // Iterates entries: fn(name, fentry_off, inode_off).
  template <typename Fn>
  void list(Inode& dir, Fn&& fn) const;

  // Streaming enumeration: emits up to `cap` entries starting at `cursor`
  // (0 = beginning) and returns the cursor of the next unexamined slot, or
  // kReaddirEnd when the directory is exhausted.  The cursor is an opaque
  // position (chain unit / block ordinal / line / slot), valid only for
  // the directory it came from.  Semantics under concurrent churn: an
  // entry that is neither renamed nor migrated by a concurrent split for
  // the whole scan appears exactly once; a renamed entry and an entry a
  // concurrent split migrates may appear twice (legacy position first,
  // bucket position later) but is never skipped — the split publishes the
  // bucket copy before clearing the legacy one, and buckets are scanned
  // after the legacy chain.
  template <typename Fn>
  std::uint64_t list_at(Inode& dir, std::uint64_t cursor, std::size_t cap,
                        Fn&& fn) const;

  // Iterates every hash block of the directory — the anchor chain plus
  // every bucket chain: fn(DirBlock*, block_offset).  Recovery's
  // reachability walk and the checker use this.
  template <typename Fn>
  void for_each_block(Inode& dir, Fn&& fn) const;

  // True iff the directory holds no entries.  Early-exits at the first
  // live slot; blocks visited are counted in stats().block_probes.
  [[nodiscard]] bool empty(Inode& dir) const;

  // Creates (and persists) the first hash block of a new directory.
  Result<std::uint64_t> create_dir_block();

  // Splits an unsplit directory into 2^bucket_bits bucket chains (the
  // crash-ordered migration described in the header comment).  Called
  // automatically by insert() once the anchor chain outgrows the
  // threshold; public so tests can drive it directly.  A no-op when the
  // directory is already split or splitting is disabled.
  Status split_directory(Inode& dir);

  // Split policy: split once the anchor chain exceeds `threshold_blocks`
  // blocks, into 2^bucket_bits buckets.  bucket_bits == 0 disables
  // splitting (the benches' unsplit A/B arm).
  void set_split_params(std::uint64_t threshold_blocks,
                        unsigned bucket_bits) noexcept {
    split_threshold_ = threshold_blocks == 0 ? 1 : threshold_blocks;
    split_bits_ = bucket_bits > kMaxBucketBits ? kMaxBucketBits : bucket_bits;
  }
  [[nodiscard]] unsigned split_bits() const noexcept { return split_bits_; }

  // Current fan-out depth of `dir` (0 = unsplit).
  [[nodiscard]] std::uint64_t dir_depth(Inode& dir) const noexcept {
    DirBlock* f = first_block(dir);
    return f != nullptr ? f->depth.load(std::memory_order_acquire) : 0;
  }

  // Must be called before a directory's first hash block is freed (rmdir,
  // rename-over, unlink of the last link): advances the mount-wide epoch
  // generation (Superblock::dir_epoch_gen) past the directory's final
  // epoch.  The next create_dir_block then stamps a strictly larger value,
  // so no later directory recycling this offset can reach an epoch some
  // cache entry of the dead directory was filled against (the cache-key
  // offsets are recycled; the epoch stream is what stays unique).
  void retire_dir_epoch(Inode& dir) noexcept;

  // Applies pending recovery for one directory: finishes interrupted
  // deletes/renames and replays the cross-directory log.  Used both by the
  // lease-steal path and by full recovery.
  void recover_directory(Inode& dir);

  // Fig. 5b step 6, deferred: frees chain blocks (beyond the first) whose
  // slots are all empty.  Only safe offline (full recovery): concurrent
  // lookups may hold pointers into the chain.  Returns blocks freed.
  std::uint64_t compact_chain(Inode& dir);

  // Number of hash blocks in the directory's chain (tests, stats).
  [[nodiscard]] std::uint64_t chain_length(Inode& dir) const;

  // Current mutation epoch of `dir`'s anchor block (see DirBlock::epoch).
  // ~0 when the directory has no hash block (being torn down) — a value no
  // fill ever stores, so cache validation can never succeed against it.
  // Cache users should prefer name_epoch(): once a directory splits, the
  // anchor epoch no longer governs entry lookups.
  [[nodiscard]] std::uint64_t dir_epoch(Inode& dir) const noexcept {
    DirBlock* f = first_block(dir);
    return f != nullptr ? f->epoch.load(std::memory_order_acquire) : ~0ull;
  }

  // The mutation epoch governing `name` in `dir`, plus the bucket it
  // hashes to: the anchor epoch while unsplit, the bucket head's epoch
  // once split.  epoch == ~0 (never stored by any fill) when the
  // directory is torn down or the head is unreachable.
  struct NameEpoch {
    std::uint64_t epoch = ~0ull;
    std::uint32_t bucket = 0;
  };
  [[nodiscard]] NameEpoch name_epoch(Inode& dir,
                                     std::string_view name) const noexcept {
    NameEpoch ne;
    DirBlock* anchor = first_block(dir);
    if (anchor == nullptr) return ne;
    const std::uint64_t d = anchor->depth.load(std::memory_order_acquire);
    if (d == 0) {
      ne.epoch = anchor->epoch.load(std::memory_order_acquire);
      return ne;
    }
    ne.bucket = bucket_of(name, d > kMaxBucketBits ? kMaxBucketBits : d);
    DirBlock* head = anchor->bucket_heads[ne.bucket].load().in(dev_);
    if (head != nullptr)
      ne.epoch = head->epoch.load(std::memory_order_acquire);
    return ne;
  }

  // Monotone telemetry (surfaced through FsStat).
  struct Stats {
    std::uint64_t splits = 0;             // directories fanned out
    std::uint64_t block_probes = 0;       // blocks scanned by empty()
    std::uint64_t epoch_bumps_scoped = 0; // bucket-scoped EpochGuards
    std::uint64_t epoch_bumps_full = 0;   // whole-directory EpochGuards
  };
  [[nodiscard]] Stats stats() const noexcept {
    Stats s;
    s.splits = stat_splits_.load(std::memory_order_relaxed);
    s.block_probes = stat_block_probes_.load(std::memory_order_relaxed);
    s.epoch_bumps_scoped =
        stat_epoch_scoped_.load(std::memory_order_relaxed);
    s.epoch_bumps_full = stat_epoch_full_.load(std::memory_order_relaxed);
    return s;
  }

  // Lease for busy-line locks (tests shrink it).
  void set_lease_ns(std::uint64_t ns) noexcept { lease_ns_ = ns; }

  [[nodiscard]] nvmm::Device& device() const noexcept { return dev_; }

 private:
  friend class LineLock;
  friend class EpochGuard;

  [[nodiscard]] DirBlock* first_block(Inode& dir) const noexcept {
    return dir.dir.load().in(dev_);
  }
  FileEntry* entry_at(std::uint64_t off) const noexcept {
    return reinterpret_cast<FileEntry*>(dev_.at(off));
  }

  // Where a name currently lives: the anchor block, the chain head that
  // governs it (== anchor while unsplit), its bucket, and whether a split
  // is still migrating (the legacy chain may then also hold the entry).
  struct Route {
    DirBlock* anchor = nullptr;
    DirBlock* head = nullptr;
    unsigned bucket = 0;
    bool splitting = false;
  };
  [[nodiscard]] Route route_of(Inode& dir,
                               std::string_view name) const noexcept;
  // The block whose line lock serializes mutations of this route: the
  // bucket head once the split settled, the anchor otherwise (a mid-split
  // directory serializes every mutator on the anchor, behind the
  // splitter's locks).
  static DirBlock* lock_block_of(const Route& rt) noexcept {
    return (rt.splitting || rt.head == nullptr) ? rt.anchor : rt.head;
  }

  // Acquired mutation context for one (dir, name) pair; `lock` guards
  // lock_block_of(rt)'s line.  rt.anchor == nullptr when the directory is
  // being torn down (no lock taken).
  struct MutCtx {
    Route rt;
    std::unique_ptr<LineLock> lock;
  };
  MutCtx lock_name(Inode& dir, std::string_view name, unsigned ln);
  // Same for two (dir, name) pairs, acquiring in global (block, line)
  // order and re-routing when a split completed while waiting.
  struct PairCtx {
    Route rt_a;
    Route rt_b;
    std::unique_ptr<LineLock> first;
    std::unique_ptr<LineLock> second;
  };
  PairCtx lock_pair(Inode& dir_a, std::string_view name_a, unsigned ln_a,
                    Inode& dir_b, std::string_view name_b, unsigned ln_b);
  // Crashed-holder repair for a just-stolen line lock on `target`.
  void steal_repair(Inode& dir, const Route& rt, DirBlock* target,
                    unsigned ln);

  // Probes line `ln` for `name` in every chain that may hold it (the
  // governing bucket chain; plus the legacy chain first while a split is
  // migrating); returns {block, slot, v} or nulls.  A `locked` caller
  // (holding the line lock) scrubs slots whose entries are zeroed
  // (interrupted delete); a lock-free reader only skips them.
  //
  // `v` is the slot word the probe validated: its tag matched, its entry
  // carried `name`, and the slot still held it after the name compare and
  // the read of `inode` (the entry's inode offset).  Lock-free readers must
  // use `v` and `inode`, never reload the slot or the entry — a concurrent
  // remove may zero or recycle either the instant the probe returns.
  // Under the line lock the slot cannot change, so `v` is also the current
  // word.
  struct SlotRef {
    DirBlock* block = nullptr;
    DirSlot* slot = nullptr;
    std::uint64_t v = 0;
    std::uint64_t inode = 0;
  };
  SlotRef find_slot(Inode& dir, unsigned ln, std::string_view name,
                    std::uint16_t tag, bool locked = true) const;
  SlotRef find_slot_in(DirBlock* head, unsigned ln, std::string_view name,
                       std::uint16_t tag, bool locked = true) const;
  // First free slot in line `ln` of `head`'s chain, appending a block if
  // needed.  New entries always go to the governing head, never legacy.
  Result<SlotRef> free_slot_in(DirBlock* head, unsigned ln);

  // Interrupted-delete scrubber: if the slot's entry is zeroed or being
  // freed, finish the delete and clear the slot.  Returns true if scrubbed.
  bool scrub_slot(DirSlot& slot) const;

  // Fixes rename/migration inconsistencies in line `ln` of one chain
  // (entry hashing to a different line or bucket).  Caller holds the
  // chain's line lock.
  void repair_line_chain(Inode& dir, DirBlock* head, unsigned ln);
  // Same for line `ln` of every chain (recovery; dead-splitter steal).
  void repair_line_all(Inode& dir, unsigned ln);

  // Moves every legacy (anchor-chain) entry of line `ln` to its bucket —
  // publish in the bucket, then clear the legacy slot, deduplicating when
  // a crashed migrator already published.  Caller holds the anchor line
  // lock; depth must be published.  Returns true iff the line fully
  // drained; false when some slot could not migrate (out of blocks, torn
  // head, or a rename remnant awaiting repair).  Callers must then leave
  // split_state armed so legacy-first probing keeps those entries
  // reachable until a later pass finishes the drain.
  bool migrate_line(Inode& dir, unsigned ln);

  // Splits `dir` when the anchor chain outgrew the threshold.
  void maybe_split(Inode& dir);

  // Settles an armed RenameLog: redo when the destination published the
  // new entry, undo otherwise.  Runs from recovery and on a live mount (a
  // renamer that took over a dead renamer's log lock).
  void replay_cross_log(Inode& src_dir);
  // True when fe_off appears in any slot of the directory whose anchor
  // chain starts at first_blk_off (cross-rename redo/undo decision).
  bool dir_contains_fentry(std::uint64_t first_blk_off,
                           std::uint64_t fe_off) const;

  Status insert_locked(Inode& dir, const Route& rt, std::string_view name,
                       std::uint64_t fentry_off);
  Result<std::uint64_t> remove_locked(Inode& dir, unsigned ln,
                                      std::string_view name);

  nvmm::Device& dev_;
  Pools pools_;
  std::uint64_t lease_ns_ = 100'000'000;
  std::uint64_t split_threshold_ = 4;   // anchor blocks before fanning out
  unsigned split_bits_ = kMaxBucketBits;
  mutable std::atomic<std::uint64_t> stat_splits_{0};
  mutable std::atomic<std::uint64_t> stat_block_probes_{0};
  mutable std::atomic<std::uint64_t> stat_epoch_scoped_{0};
  mutable std::atomic<std::uint64_t> stat_epoch_full_{0};
};

// Brackets a directory mutation with epoch bumps for the lookup cache
// (lookup_cache.h): +1 on entry (before any slot/entry store of the guarded
// operation can be observed) and +1 on exit (after the last).  A cache fill
// that read the epoch before a mutation's entry bump can therefore never
// validate once any part of that mutation became visible.  The destructor
// bumps even while crash-unwinding (CrashedException): an aborted mutation
// must invalidate just like a finished one — survivors of a genuinely dead
// process are covered because the pre-bump already made fills unverifiable.
//
// Two scopes:
//  * Whole-directory (ops, dir): bumps the anchor AND, when split, every
//    bucket head — re-reading depth and the head pointers at each bump, so
//    a split completing inside the guarded operation is still fully
//    invalidated on exit.  For structural changes that affect every entry
//    (chmod/chown, recovery, the split itself, teardown).
//  * Bucket-scoped (ops, dir, head[, head_b]): bumps only the chain
//    head(s) governing the mutated name(s) — one create no longer
//    invalidates the whole directory's cached components.  Construct after
//    the line locks are held so the routing is pinned.
class EpochGuard {
 public:
  EpochGuard(const DirOps& ops, Inode& dir) noexcept
      : ops_(ops), anchor_(ops.first_block(dir)), whole_(true) {
    ops.stat_epoch_full_.fetch_add(1, std::memory_order_relaxed);
    bump();
  }
  EpochGuard(const DirOps& ops, Inode& dir, DirBlock* head,
             DirBlock* head_b = nullptr) noexcept
      : ops_(ops), anchor_(ops.first_block(dir)), a_(head), b_(head_b) {
    ops.stat_epoch_scoped_.fetch_add(1, std::memory_order_relaxed);
    bump();
  }
  ~EpochGuard() { bump(); }
  EpochGuard(const EpochGuard&) = delete;
  EpochGuard& operator=(const EpochGuard&) = delete;

 private:
  void bump() noexcept {
    if (whole_) {
      if (anchor_ == nullptr) return;
      anchor_->epoch.fetch_add(1, std::memory_order_acq_rel);
      const std::uint64_t d = anchor_->depth.load(std::memory_order_acquire);
      if (d == 0) return;
      const unsigned n = 1u << (d > kMaxBucketBits ? kMaxBucketBits : d);
      for (unsigned i = 0; i < n; ++i) {
        DirBlock* h = anchor_->bucket_heads[i].load().in(ops_.dev_);
        if (h != nullptr) h->epoch.fetch_add(1, std::memory_order_acq_rel);
      }
      return;
    }
    if (a_ != nullptr) a_->epoch.fetch_add(1, std::memory_order_acq_rel);
    if (b_ != nullptr && b_ != a_)
      b_->epoch.fetch_add(1, std::memory_order_acq_rel);
  }
  const DirOps& ops_;
  DirBlock* anchor_;
  DirBlock* a_ = nullptr;
  DirBlock* b_ = nullptr;
  bool whole_ = false;
};

// Busy-wait lock on one line of a chain head (bit in that head's busy
// word) — per-bucket lock words once a directory splits.  Stealing an
// expired lease lets the caller repair the line, implementing the paper's
// "the next process accessing the same row continues the execution" rule.
//
// NOT a SCOPED_CAPABILITY, deliberately (the justification the analyze
// preset requires): (a) the capability would have to be block-granular
// (see DirBlock) while the lock is line-granular, so the splitter's
// all-48-lines sweep and same-block lock_pair reads as double acquisition;
// (b) every call site holds the lock through std::unique_ptr (MutCtx /
// PairCtx), and the analysis cannot track a heap-held scoped capability —
// annotating the constructor ACQUIRE would make every lock_name caller a
// false "capability leaked" error.  Lock discipline here is enforced at
// runtime instead: lease stamps + steal_repair, the §7 crash harness, and
// TSAN; pmlint checks the persist ordering of the mutations made under it.
class LineLock {
 public:
  LineLock(const DirOps& ops, Inode& dir, unsigned line,
           std::uint64_t lease_ns)
      : LineLock(ops.first_block(dir), line, lease_ns) {}
  LineLock(DirBlock* head, unsigned line, std::uint64_t lease_ns);
  // A CrashedException models the holding process dying: the lock must stay
  // held so survivors detect the expired lease and run line recovery, so
  // the destructor skips the unlock while crash-unwinding.
  ~LineLock() {
    if (std::uncaught_exceptions() == 0) unlock();
  }
  LineLock(const LineLock&) = delete;
  LineLock& operator=(const LineLock&) = delete;

  void unlock() noexcept;
  [[nodiscard]] bool stole_lease() const noexcept { return stole_; }

 private:
  DirBlock* first_;
  unsigned line_;
  bool held_ = false;
  bool stole_ = false;
};

template <typename Fn>
void DirOps::for_each_block(Inode& dir, Fn&& fn) const {
  const nvmm::pptr<DirBlock> first = dir.dir.load();
  if (!first) return;
  auto walk = [&](nvmm::pptr<DirBlock> b) {
    while (b) {
      DirBlock* blk = b.in(dev_);
      fn(blk, b.raw());
      b = blk->next.load();
    }
  };
  walk(first);
  DirBlock* anchor = first.in(dev_);
  const std::uint64_t d = anchor->depth.load(std::memory_order_acquire);
  if (d == 0) return;
  const unsigned n = 1u << (d > kMaxBucketBits ? kMaxBucketBits : d);
  for (unsigned i = 0; i < n; ++i) walk(anchor->bucket_heads[i].load());
}

template <typename Fn>
void DirOps::list(Inode& dir, Fn&& fn) const {
  for_each_block(dir, [&](DirBlock* blk, std::uint64_t) {
    for (unsigned ln = 0; ln < kLines; ++ln) {
      for (unsigned s = 0; s < kSlotsPerLine; ++s) {
        const std::uint64_t v =
            blk->lines[ln].slots[s].v.load(std::memory_order_acquire);
        const std::uint64_t off = DirSlot::off_of(v);
        if (off == 0) continue;
        const FileEntry* fe = entry_at(off);
        char namebuf[kMaxName + 1];
        const std::uint16_t len = fe->load_name(namebuf);
        if (len == 0) continue;  // being deleted
        fn(std::string_view{namebuf, len}, off, fe->inode.load().raw());
      }
    }
  });
}

template <typename Fn>
std::uint64_t DirOps::list_at(Inode& dir, std::uint64_t cursor,
                              std::size_t cap, Fn&& fn) const {
  // Cursor encoding: [unit:16][block ordinal:32][line:8][slot:8], where
  // unit 0 is the legacy/anchor chain and unit 1+i is bucket i.  Chain
  // blocks are never unlinked at runtime, so block ordinals are stable
  // for the lifetime of a scan.
  if (cursor == kReaddirEnd) return kReaddirEnd;
  const nvmm::pptr<DirBlock> first = dir.dir.load();
  if (!first) return kReaddirEnd;
  DirBlock* anchor = first.in(dev_);
  const std::uint64_t d = anchor->depth.load(std::memory_order_acquire);
  const unsigned n_units =
      1u + (d != 0 ? (1u << (d > kMaxBucketBits ? kMaxBucketBits : d)) : 0u);
  std::uint64_t unit = cursor >> 48;
  std::uint64_t blk_idx = (cursor >> 16) & 0xffffffffull;
  unsigned ln = static_cast<unsigned>((cursor >> 8) & 0xff);
  unsigned sl = static_cast<unsigned>(cursor & 0xff);
  if (ln >= kLines || sl >= kSlotsPerLine) return kReaddirEnd;  // corrupt
  std::size_t emitted = 0;
  for (; unit < n_units; ++unit, blk_idx = 0, ln = 0, sl = 0) {
    nvmm::pptr<DirBlock> b =
        unit == 0 ? first : anchor->bucket_heads[unit - 1].load();
    std::uint64_t idx = 0;
    while (b && idx < blk_idx) {
      b = b.in(dev_)->next.load();
      ++idx;
    }
    while (b) {
      DirBlock* blk = b.in(dev_);
      for (; ln < kLines; ++ln, sl = 0) {
        for (; sl < kSlotsPerLine; ++sl) {
          if (emitted == cap)
            return (unit << 48) | (idx << 16) |
                   (static_cast<std::uint64_t>(ln) << 8) | sl;
          const std::uint64_t v =
              blk->lines[ln].slots[sl].v.load(std::memory_order_acquire);
          const std::uint64_t off = DirSlot::off_of(v);
          if (off == 0) continue;
          const FileEntry* fe = entry_at(off);
          char namebuf[kMaxName + 1];
          const std::uint16_t len = fe->load_name(namebuf);
          if (len == 0) continue;  // being deleted
          fn(std::string_view{namebuf, len}, off, fe->inode.load().raw());
          ++emitted;
        }
      }
      b = blk->next.load();
      ++idx;
      ln = 0;
      sl = 0;
    }
  }
  return kReaddirEnd;
}

}  // namespace simurgh::core
