#include "nvmm/persist.h"

#include <atomic>

namespace simurgh::nvmm {

namespace {
std::atomic<StoreTracer*> g_tracer{nullptr};

// StoreTracer::on_fence's argument: fences this thread issued while traced.
thread_local std::uint64_t t_traced_fences = 0;
}  // namespace

StoreTracer* set_store_tracer(StoreTracer* t) noexcept {
  return g_tracer.exchange(t, std::memory_order_acq_rel);
}

StoreTracer* store_tracer() noexcept {
  return g_tracer.load(std::memory_order_acquire);
}

void persist(const void* p, std::size_t len) noexcept {
#ifdef SIMURGH_REAL_PERSIST
  const auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t last = (addr + (len == 0 ? 0 : len - 1)) / kCacheLine;
  for (std::uintptr_t line = addr / kCacheLine; line <= last; ++line)
    __builtin_ia32_clflushopt(reinterpret_cast<void*>(line * kCacheLine));
#endif
  // Compiler barrier: model that the flushed stores cannot be reordered
  // past subsequent persistence-ordering points.
  std::atomic_signal_fence(std::memory_order_seq_cst);
  if (StoreTracer* t = g_tracer.load(std::memory_order_relaxed)) [[unlikely]]
    t->on_persist(p, len);
}

void fence() noexcept {
#ifdef SIMURGH_REAL_PERSIST
  __builtin_ia32_sfence();
#endif
  std::atomic_signal_fence(std::memory_order_seq_cst);
  if (StoreTracer* t = g_tracer.load(std::memory_order_relaxed)) [[unlikely]]
    t->on_fence(++t_traced_fences);
}

void nt_copy(void* dst, const void* src, std::size_t len) noexcept {
  std::memcpy(dst, src, len);
  std::atomic_signal_fence(std::memory_order_seq_cst);
  if (StoreTracer* t = g_tracer.load(std::memory_order_relaxed)) [[unlikely]]
    t->on_nt_store(dst, len);
}

}  // namespace simurgh::nvmm
