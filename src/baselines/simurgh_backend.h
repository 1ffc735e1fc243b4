// Simurgh as a benchmark backend: the *real* core::FileSystem executes
// every operation (actual hash blocks, allocators, persists), while modeled
// costs are charged to the virtual clock:
//
//   * the 46-cycle jmpp delta per call — exactly what §5.1 adds,
//   * per-component hash-probe work (no dentry cache, no syscalls),
//   * the fine-grained virtual locks that mirror Simurgh's real lock
//     granularity: one resource per (directory, hash line) for metadata,
//     one per file for the data rwlock, one per allocator segment — the
//     line index is computed with the same hash the on-media layout uses,
//     so virtual contention matches where real contention would occur,
//   * NVMM bandwidth for data movement and metadata persists.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "baselines/kernelfs.h"
#include "core/fs.h"

namespace simurgh::bench {

// Ablation knobs (bench_ablation_*): each defaults to the paper's design
// point; the ablations show what each choice buys.
struct SimurghModelOptions {
  // Fig. 7k "relaxed": writes are charged without the per-file write lock.
  // Virtual time only; the real file system underneath always takes it.
  bool relaxed_writes = false;
  // Directory lock granularity: kLines = per-hash-line busy flags (the
  // paper's design); 1 = one lock per directory (the VFS-style strawman).
  unsigned lock_lines = core::kLines;
  // Block-allocator segment count: 2 x cores in the paper; 1 = serial.
  unsigned alloc_segments = 20;
  // Per-call entry cost: jmpp delta (46) in the paper's design; a syscall
  // (~700 with dispatch) for the kernel-style strawman; 0 for "free".
  std::uint32_t entry_cycles = kCosts.jmpp_delta;
  // Epoch-validated DRAM lookup cache (lookup_cache.h).  Defaults to the
  // paper's design point — *no* dentry-style cache, every component probes
  // the hash blocks — so the cost anchors keep reproducing Figs. 6/7.
  // The ablation flips it on to show what the cache buys on warm walks.
  bool path_cache = false;
  // Thread-local block reservations (block_alloc.h): an allocating append
  // takes the segment lock only on every reserve_chunk-th allocation (the
  // chunk carve); the rest are DRAM pointer bumps.  1 = carve per append
  // (the pre-reservation strawman).
  std::uint64_t reserve_chunk = 64;
  // Durability class modeled for data writes/fsync (write_behind.h).
  // Cost-model only: the virtual clock charges the staging ack path
  // (sim_write_staged / sim_fsync_absorbed) while the real embedded fs
  // stays strict — the DES needs deterministic virtual time, and the real
  // tier's wall-clock persister timer has no meaning under it.
  core::Durability durability_class = core::Durability::strict;
  std::size_t device_size = 4ull << 30;
};

class SimurghBackend : public FsBackend {
 public:
  explicit SimurghBackend(sim::SimWorld& world, bool relaxed_writes = false,
                          std::size_t device_size = 4ull << 30);
  SimurghBackend(sim::SimWorld& world, const SimurghModelOptions& opts);

  [[nodiscard]] std::string name() const override {
    return relaxed_ ? "Simurgh-relaxed" : "Simurgh";
  }

  Status create(sim::SimThread& t, const std::string& path) override;
  Status mkdir(sim::SimThread& t, const std::string& path) override;
  Status unlink(sim::SimThread& t, const std::string& path) override;
  Status rename(sim::SimThread& t, const std::string& from,
                const std::string& to) override;
  Status resolve(sim::SimThread& t, const std::string& path) override;
  Result<std::uint64_t> file_size(sim::SimThread& t,
                                  const std::string& path) override;
  Result<std::vector<std::string>> readdir(sim::SimThread& t,
                                           const std::string& path) override;
  Status read(sim::SimThread& t, const std::string& path, std::uint64_t off,
              std::uint64_t len) override;
  Status write(sim::SimThread& t, const std::string& path, std::uint64_t off,
               std::uint64_t len) override;
  Status append(sim::SimThread& t, const std::string& path,
                std::uint64_t len) override;
  Status fallocate(sim::SimThread& t, const std::string& path,
                   std::uint64_t len) override;
  Status fsync(sim::SimThread& t, const std::string& path) override;
  Status chmod(sim::SimThread& t, const std::string& path,
               std::uint32_t mode) override;
  Status chown(sim::SimThread& t, const std::string& path, std::uint32_t uid,
               std::uint32_t gid) override;
  void set_cached_reads(bool cached) override { cached_reads_ = cached; }
  void set_fd_workload(bool fd) override { fd_workload_ = fd; }

  core::FileSystem& fs() { return *fs_; }

 private:
  void entry_cost(sim::SimThread& t) { t.cpu(opts_.entry_cycles); }
  // Charges the walk against the current warm set: sim_cache_hit per warm
  // prefix, the full hash-block probe for the rest.  Never warms anything
  // itself — warmth is recorded only after the operation succeeded
  // (warm_path), so repeated lookups of nonexistent paths keep paying the
  // full probe, exactly like the real cache (no negative caching).
  void walk_cost(sim::SimThread& t, const std::string& path);
  // Records a successful walk: every prefix it verified against the hash
  // blocks is now cached.  `leaf` is false for ops that only resolve the
  // parent chain (create/unlink/rename leave the leaf binding cold).
  void warm_path(const std::string& path, bool leaf);
  // Drops `path` and everything under it from the warm model — the
  // bindings a removed/renamed subtree can never serve again.
  void cool_path(const std::string& path);
  // Mirrors the epoch bump of a mutated (or chmod/chown-ed) directory:
  // every binding held *in* it — its immediate children — stops
  // validating.  Deeper descendants keep their own bindings; a walk
  // through them re-pays exactly one full probe at the cooled component,
  // matching the real cache's conflict-and-refill cost.
  void cool_dir_children(const std::string& dir);
  // Virtual busy-line lock of the leaf's hash line in `dir`.
  void line_critical(sim::SimThread& t, const std::string& dir,
                     const std::string& leaf, std::uint32_t hold);
  void segment_critical(sim::SimThread& t, const std::string& path,
                        std::uint32_t hold);
  Result<int> cached_fd(const std::string& path, bool create);
  void evict_fd(const std::string& path);

  sim::SimWorld& world_;
  SimurghModelOptions opts_;
  bool relaxed_;
  bool cached_reads_ = false;
  bool fd_workload_ = false;
  nvmm::Device dev_;
  nvmm::Device shm_;
  std::unique_ptr<core::FileSystem> fs_;
  std::unique_ptr<core::Process> proc_;
  std::unique_ptr<core::Process> root_proc_;  // chown needs euid 0
  std::unordered_map<std::string, int> fds_;
  // Allocations left in each sim thread's modeled reservation; a refill
  // (the segment-lock carve) is charged when a thread's count hits zero.
  std::unordered_map<const sim::SimThread*, std::uint64_t> reserve_left_;
  // Paths whose final binding the shared lookup cache holds; the virtual
  // clock charges sim_cache_hit instead of sim_component for them.  The
  // real cache in fs_ runs too — this set only mirrors it for costing.
  std::unordered_set<std::string> warm_paths_;
  std::vector<char> scratch_;
  sim::Bandwidth& nvmm_read_;
  sim::Bandwidth& nvmm_write_;
  sim::Bandwidth& cache_read_;
};

}  // namespace simurgh::bench
