// Emulated NVMM / shared-DRAM devices.
//
// The paper runs on Intel Optane DC DIMMs exposed as a devdax/fsdax range
// that every process mmap()s.  We reproduce the programming model with a
// Device that owns one contiguous mapping:
//   * anonymous memory (default) — the common case for tests/benches, or
//   * a backing file (fsdax-style) — so examples can persist across runs.
//
// Everything stored inside a Device uses relative offsets (nvmm::pptr), never
// absolute pointers, exactly as §4.1 of the paper requires: the mapping
// address is randomized per process (ASLR) and must not leak into the media.
//
// An anonymous Device is mapped like a devdax namespace: base() is 2 MiB
// aligned and the range is advised MADV_HUGEPAGE, so reads pay no 4 KiB
// page walks the paper's hardware would not charge.  The advice is
// best-effort: it is ignored when THP is off, and size() and offsets never
// depend on it.  MAP_SHARED devices are shmem, which follows the host's
// shmem_enabled setting instead.  File-backed devices keep their plain file
// mapping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace simurgh::nvmm {

// Which device a relative pointer refers to.  Simurgh uses two shared
// spaces: persistent NVMM for data+metadata, volatile shared DRAM for
// cross-process runtime state (per-file locks, allocator hints).
enum class Space : std::uint8_t { nvmm = 0, shm = 1 };

enum class Sharing {
  private_mapping,  // per-process (tests, benches)
  shared_mapping,   // MAP_SHARED: survives fork() as one region, so real
                    // child *processes* genuinely share the file system —
                    // the paper's multi-process deployment
};

class Device {
 public:
  // Anonymous device of `size` bytes (rounded up to the 4 KiB page size).
  explicit Device(std::size_t size,
                  Sharing sharing = Sharing::private_mapping);
  // File-backed device (created/extended as needed) — fsdax emulation.
  Device(const std::string& path, std::size_t size);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;
  Device(Device&& other) noexcept;
  Device& operator=(Device&& other) noexcept;

  [[nodiscard]] std::byte* base() const noexcept { return base_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool file_backed() const noexcept { return fd_ >= 0; }

  // Zeroes the whole device ("ndctl + mkfs" equivalent).
  void wipe() noexcept;

  // Translates an offset into this device; offset 0 is reserved as null.
  [[nodiscard]] std::byte* at(std::uint64_t off) const noexcept {
    return off == 0 ? nullptr : base_ + off;
  }
  [[nodiscard]] std::uint64_t offset_of(const void* p) const noexcept {
    return static_cast<std::uint64_t>(static_cast<const std::byte*>(p) -
                                      base_);
  }
  [[nodiscard]] bool contains(const void* p) const noexcept {
    return p >= base_ && p < base_ + size_;
  }

 private:
  void unmap() noexcept;

  std::byte* base_ = nullptr;
  std::size_t size_ = 0;
  int fd_ = -1;
};

}  // namespace simurgh::nvmm
