// fsck-style structural invariant checker (crash-image testing).
//
// check_fs() walks a mounted file system and verifies, independently of the
// recovery code, every structural invariant the paper's persistence
// protocols are supposed to guarantee in a *quiescent* (freshly recovered or
// cleanly unmounted) image:
//
//   * superblock sanity: magic/version, root inode valid and a directory;
//   * two-bit quiescence (§4.2): no object is left allocated-in-flight (11)
//     or free-in-progress (01), and the set of valid (10) objects equals the
//     set reachable from the root — no leaked objects, no dangling
//     references;
//   * directory agreement (§4.3, Figs. 4-5): every slot's tag matches its
//     entry's name hash, the entry sits in the line its name hashes to, the
//     entry points at a valid inode, the symlink flag agrees with the inode
//     mode, no entry is referenced by two slots, no duplicate names;
//   * rename-log well-formedness (Fig. 5c, §4.3): no armed cross-directory
//     log, no busy lines, no rename marker survives into a quiescent image;
//   * link counts: every inode's nlink equals the number of directory
//     entries referencing it (the root gets one implicit reference from the
//     superblock);
//   * block accounting (§4.2): every block of the data area is claimed by
//     exactly one owner — a pool segment, a file extent, a long-symlink
//     target, the CRC table, the free-map snapshot, a thread reservation,
//     or a clear bit of the free map — with no double claims and no leaks,
//     and each allocator segment's free-block counter equals the number of
//     clear bits in its range of the map.
//
// The checker never repairs anything; it is the oracle half of the crash
// harness (tests/crash_harness.h), which mounts materialized crash images,
// lets recovery run, and then requires check_fs() to come back clean.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/fs.h"

namespace simurgh::core {

struct CheckReport {
  // Human-readable invariant violations; empty means the image is sound.
  std::vector<std::string> errors;

  // Census of what the walk saw (useful in test output and as a cheap
  // cross-check against RecoveryReport).
  std::uint64_t inodes = 0;
  std::uint64_t files = 0;
  std::uint64_t directories = 0;
  std::uint64_t symlinks = 0;
  std::uint64_t file_entries = 0;
  std::uint64_t dir_blocks = 0;
  std::uint64_t extent_blocks = 0;
  std::uint64_t data_blocks_in_use = 0;
  std::uint64_t free_blocks = 0;
  std::uint64_t crc_mismatches = 0;

  [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
  // First `max_errors` violations joined for assertion messages.
  [[nodiscard]] std::string summary(std::size_t max_errors = 16) const;
};

// Checks a quiescent mount.  Read-only; safe to call from tests after any
// recover()/mount() and before new mutations start.
CheckReport check_fs(FileSystem& fs);

}  // namespace simurgh::core
