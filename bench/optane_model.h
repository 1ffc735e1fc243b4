// Wall-clock Optane timing model, as a persist tracer.
//
// The emulated device runs at DRAM speed and a fence costs nothing, so a
// bench contrasting synchronous persistence against DRAM staging
// (bench_writebehind, bench_data_path) would measure only bookkeeping.
// While an OptaneModel is installed, every fence() busy-waits out the WPQ
// drain it models: a base media-write latency plus the bytes this thread
// flushed or streamed since its last fence, at media write bandwidth.  The
// anchors are the ones the virtual-time cost model uses
// (baselines/costs.h): 500 cycles @ 2.5 GHz = 200 ns write latency,
// 4.8 B/cycle = 12 GB/s random-4KB write bandwidth.  The model charges at
// the fence, where an sfence actually stalls; the emulated store itself
// still runs at DRAM speed, so small-transfer costs are approximated from
// above.
//
// Pending bytes are per thread: an sfence orders only the issuing thread's
// stores, and per-thread accounting keeps the model free of shared state.
// Like every StoreTracer it excludes the others while installed; a
// FlushCounter constructed inside its lifetime takes over and hands the
// model back on destruction.
#pragma once

#include <sys/mman.h>

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "baselines/costs.h"
#include "nvmm/device.h"
#include "nvmm/persist.h"
#include "sim/desim.h"

namespace simurgh::bench {

class OptaneModel final : public nvmm::StoreTracer {
 public:
  static constexpr double kFenceBaseNs =
      kCosts.nvmm_write_lat / (sim::kClockHz / 1e9);
  static constexpr double kBytesPerNs =
      kCosts.nvmm_write_bpc * (sim::kClockHz / 1e9);

  OptaneModel() : prev_(nvmm::set_store_tracer(this)) {}
  ~OptaneModel() { nvmm::set_store_tracer(prev_); }

  OptaneModel(const OptaneModel&) = delete;
  OptaneModel& operator=(const OptaneModel&) = delete;

  void on_persist(const void* p, std::size_t len) override {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t first = a / nvmm::kCacheLine;
    const std::uintptr_t last = (a + (len == 0 ? 0 : len - 1)) /
                                nvmm::kCacheLine;
    t_pending_bytes += (last - first + 1) * nvmm::kCacheLine;
  }
  void on_nt_store(const void* /*dst*/, std::size_t len) override {
    t_pending_bytes += len;
  }
  void on_fence(std::uint64_t /*seq*/) override {
    spin_ns(kFenceBaseNs + static_cast<double>(t_pending_bytes) / kBytesPerNs);
    t_pending_bytes = 0;
  }

  // Bytes the calling thread flushed or streamed since its last fence: the
  // modeled write-pending-queue contents its next fence must drain.
  [[nodiscard]] static std::uint64_t pending_bytes() noexcept {
    return t_pending_bytes;
  }

 private:
  static void spin_ns(double ns) noexcept {
    using Clock = std::chrono::steady_clock;
    const auto until =
        Clock::now() + std::chrono::nanoseconds(static_cast<std::int64_t>(ns));
    while (Clock::now() < until) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

  static inline thread_local std::uint64_t t_pending_bytes = 0;
  nvmm::StoreTracer* prev_;
};

// A real NVMM region is DAX-mapped: the whole range is backed at mmap time
// and no access ever demand-faults.  Benches that run under the model
// populate their devices up front, as MAP_POPULATE would, so modeled
// persist costs are not interleaved with page-fault noise.  The kernel
// populates the range; a kernel without MADV_POPULATE_WRITE (pre-5.14)
// gets every page written instead.
inline void prefault(nvmm::Device& dev) noexcept {
  if (::madvise(dev.base(), dev.size(), MADV_POPULATE_WRITE) != 0)
    dev.wipe();
}

}  // namespace simurgh::bench
