// Per-block data integrity: the CRC32C residency table (layout version 2).
//
// A dedicated NVMM region — carved from the data area at format time and
// referenced by Superblock::crc_table_off/crc_table_blocks — holds one
// 4-byte CRC32C per data-area 4 KB block.  Entry semantics:
//
//   0      no checksum recorded.  Fresh runs (ensure_allocated clears every
//          block it hands to a file, covering fallocate's unwritten blocks
//          and any stale value left by the block's previous owner) and
//          blocks owned by non-file structures (pool segments, directory
//          blocks, long-symlink targets, the table itself).  Every verifier
//          skips a 0 entry.
//   other  crc32c of the full 4 KB block, with a computed 0 remapped to 1.
//
// Who maintains / who verifies (DESIGN.md §13):
//   maintain   data.cc write_file_bytes (strict writes AND the write-behind
//              drain — both produce bytes through it), truncate's tail
//              re-zero, and recovery's post-crash re-derivation of every
//              reachable file block (an in-place overwrite torn by a crash
//              legitimately leaves data and entry out of step; recovery
//              restores the invariant before verifiers run).
//   verify     data.cc do_read under verify_reads mode, the background
//              scrubber (core/scrub.h), and fsck's CRC pass (check.cc).
//
// Writers hold the file's exclusive lock while stamping, so an entry never
// races its own block's bytes.
#pragma once

#include <atomic>
#include <cstdint>

#include "alloc/block_alloc.h"
#include "common/hash.h"
#include "nvmm/device.h"
#include "nvmm/persist.h"

namespace simurgh::core {

class CrcTable {
 public:
  static constexpr std::uint32_t kNoCrc = 0;

  // CRC of a full 4 KB block, 0 remapped so it never collides with "no
  // checksum recorded".
  [[nodiscard]] static std::uint32_t block_crc(const void* block) noexcept {
    const std::uint32_t c = crc32c(block, alloc::kBlockSize);
    return c == kNoCrc ? 1u : c;
  }

  // Entries needed to cover `n_blocks` data blocks, as a block count.
  [[nodiscard]] static std::uint64_t blocks_for(std::uint64_t n_blocks) noexcept {
    const std::uint64_t bytes = n_blocks * sizeof(std::uint32_t);
    return (bytes + alloc::kBlockSize - 1) / alloc::kBlockSize;
  }

  void attach(nvmm::Device& device, std::uint64_t table_off,
              std::uint64_t table_blocks, std::uint64_t data_off) noexcept {
    device_ = &device;
    entries_ = reinterpret_cast<std::atomic<std::uint32_t>*>(
        device.at(table_off));
    capacity_ = table_blocks * (alloc::kBlockSize / sizeof(std::uint32_t));
    data_off_ = data_off;
  }
  void detach() noexcept { entries_ = nullptr; }

  [[nodiscard]] bool attached() const noexcept { return entries_ != nullptr; }

  [[nodiscard]] std::uint32_t entry(std::uint64_t dev_off) const noexcept {
    const std::uint64_t i = index_of(dev_off);
    if (i >= capacity_) return kNoCrc;
    return entries_[i].load(std::memory_order_relaxed);
  }

  // Recompute a block's checksum from its device bytes and record it.
  // Deliberately NO flush: the table is derivable state — recovery
  // re-stamps every reachable file block — so eager persistence would only
  // perturb the data path's persist shape (one metadata line per commit,
  // asserted by the FlushCounter tests) without buying crash safety.
  void stamp(std::uint64_t block_dev_off) noexcept {
    const std::uint64_t i = index_of(block_dev_off);
    if (i >= capacity_) return;
    entries_[i].store(block_crc(device_->at(block_dev_off)),
                      std::memory_order_relaxed);
  }

  // Reset a run's entries to "no checksum recorded" — the alloc-time
  // gateway that stops a recycled block's stale entry from indicting its
  // new owner's bytes.
  void clear(std::uint64_t dev_off, std::uint64_t n_blocks) noexcept {
    for (std::uint64_t b = 0; b < n_blocks; ++b) {
      const std::uint64_t i = index_of(dev_off + b * alloc::kBlockSize);
      if (i >= capacity_) return;
      entries_[i].store(kNoCrc, std::memory_order_relaxed);
    }
  }

  // True when the block's bytes match its entry (or the entry is 0).
  [[nodiscard]] bool verify(std::uint64_t block_dev_off) const noexcept {
    const std::uint64_t i = index_of(block_dev_off);
    if (i >= capacity_) return true;
    const std::uint32_t want = entries_[i].load(std::memory_order_relaxed);
    if (want == kNoCrc) return true;
    return block_crc(device_->at(block_dev_off)) == want;
  }

 private:
  [[nodiscard]] std::uint64_t index_of(std::uint64_t dev_off) const noexcept {
    return (dev_off - data_off_) / alloc::kBlockSize;
  }

  nvmm::Device* device_ = nullptr;
  std::atomic<std::uint32_t>* entries_ = nullptr;  // in NVMM
  std::uint64_t capacity_ = 0;
  std::uint64_t data_off_ = 0;
};

}  // namespace simurgh::core
