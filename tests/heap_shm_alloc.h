// Heap stand-in for the shm device's allocator block, for tests that drive
// BlockAllocator / ObjectAllocator without a mounted file system.
#pragma once

#include <cstdint>
#include <memory>
#include <new>

#include "alloc/block_alloc.h"
#include "alloc/shm_state.h"

namespace simurgh::alloc {

struct HeapShmAllocDeleter {
  void operator()(ShmAllocShared* p) const noexcept {
    p->~ShmAllocShared();
    ::operator delete(p, std::align_val_t{64});
  }
};
using HeapShmAlloc = std::unique_ptr<ShmAllocShared, HeapShmAllocDeleter>;

// The shared state with a free map for `n_blocks` blocks right behind it,
// reset like a freshly formatted shm header (so it carries a fresh epoch).
inline HeapShmAlloc make_heap_shm_alloc(std::uint64_t n_blocks) {
  const std::uint64_t words = free_map_words(n_blocks);
  void* mem = ::operator new(sizeof(ShmAllocShared) + words * 8,
                             std::align_val_t{64});
  HeapShmAlloc shared(new (mem) ShmAllocShared());
  shared->reset(sizeof(ShmAllocShared), words);
  return shared;
}

// Attaches a freshly formatted allocator to `shared` under `mount_token`
// and marks every block free, as FileSystem::format does.
inline void attach_fresh(BlockAllocator& blocks, ShmAllocShared* shared,
                         std::uint64_t mount_token) {
  blocks.attach_shared_state(shared, mount_token);
  blocks.rebuild_free_map(nullptr);
}

}  // namespace simurgh::alloc
