// Shadow-tracing NVMM device: the recording half of crash-image testing.
//
// A real power failure leaves NVMM holding exactly the cache lines that made
// it out of the CPU caches.  The persistence discipline (§4.3) bounds that
// set:
//
//   * a line flushed (clwb / nt store) before a retired sfence is durable,
//   * a line flushed after the last retired fence *may or may not* have
//     landed, and flushed-but-unfenced lines land in any order,
//   * a plain store that was never flushed is lost.
//
// ShadowLog reproduces that model for the emulated device.  It registers as
// the process-wide nvmm::StoreTracer, keeps a shadow copy of the device
// taken at attach time ("everything before tracing is durable"), and logs
// each persist()/nt_copy() as a cache-line patch carrying the line's bytes
// at flush time.  A fence seals the open set of patches into a *window*.
//
// A crash image is then: the snapshot, plus every window before some fence
// boundary applied in full, plus an arbitrary subset of the lines of the
// window at that boundary — precisely the reachable NVMM states of a crash
// anywhere inside that window (any subset of a prefix of the window's lines
// is a subset of the whole window, so enumerating at fence boundaries covers
// every intermediate crash point).  The harness (tests/crash_harness.h)
// mounts each image, runs recovery + fsck, and checks the §4.3 atomicity
// oracle.  CrashMonkey/ACE and Vinter explore the same space for kernel file
// systems (see PAPERS.md); this is the user-space NVMM equivalent.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/thread_annotations.h"
#include "nvmm/device.h"
#include "nvmm/persist.h"

namespace simurgh::nvmm {

class ShadowLog final : public StoreTracer {
 public:
  // One cache line captured at flush time.
  struct Patch {
    std::uint64_t off = 0;  // device offset, kCacheLine aligned
    std::array<std::byte, kCacheLine> bytes{};
  };

  // All lines flushed between two consecutive retired fences, in first-flush
  // order (a re-flush of the same line overwrites its bytes in place).
  struct Window {
    std::vector<Patch> patches;
    [[nodiscard]] std::size_t lines() const noexcept {
      return patches.size();
    }
  };

  struct Stats {
    std::uint64_t persists = 0;   // traced flush calls that hit the device
    std::uint64_t nt_stores = 0;  // traced nt_copy calls that hit the device
    std::uint64_t fences = 0;     // fences retired while tracing
    std::uint64_t lines_logged = 0;
    std::size_t max_window_lines = 0;
  };

  // Snapshots `dev` as the durable baseline.  Does not install the tracer.
  explicit ShadowLog(Device& dev);
  ~ShadowLog();

  ShadowLog(const ShadowLog&) = delete;
  ShadowLog& operator=(const ShadowLog&) = delete;

  // Registers/unregisters this log as the process-wide StoreTracer.
  void start();
  void stop();

  // Seals any still-open flush set into a final window, as if a crash hit
  // right before the fence that would have retired it.  Call after the
  // traced operation finishes (ops normally end with a fence, leaving this
  // a no-op).
  void seal();

  // StoreTracer.
  void on_persist(const void* p, std::size_t len) override;
  void on_nt_store(const void* dst, std::size_t len) override;
  void on_fence(std::uint64_t seq) override;

  [[nodiscard]] std::size_t n_windows() const noexcept {
    return windows_.size();
  }
  [[nodiscard]] const Window& window(std::size_t i) const {
    return windows_[i];
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

  // Materializes the crash image at fence boundary `f` into `out` (a device
  // of at least the traced size): snapshot + windows [0, f) in full + the
  // lines of window `f` whose index has `take[i] == true`.  `f` may equal
  // n_windows() with an empty `take` to materialize the final durable state.
  void materialize(std::size_t f, const std::vector<bool>& take,
                   Device& out) const;

  // Convenience for exhaustive enumeration: bit i of `mask` selects line i
  // of window `f` (window must have <= 64 lines).
  void materialize_mask(std::size_t f, std::uint64_t mask, Device& out) const;

 private:
  void log_range(const void* p, std::size_t len) REQUIRES(mu_);

  Device* dev_;
  std::vector<std::byte> snapshot_;
  // windows_ and stats_ are *mutated* only under mu_ (tracer callbacks,
  // seal) but deliberately carry no GUARDED_BY: the read-side accessors
  // (n_windows, window, stats, materialize_mask's pre-lock peek) run on the
  // single harness thread after tracing stopped, when no writer exists, and
  // window()/stats() return references a lock could not protect anyway.
  std::vector<Window> windows_;
  // Open flush set: patches since the last fence + per-line index into it.
  std::vector<Patch> open_ GUARDED_BY(mu_);
  std::unordered_map<std::uint64_t, std::size_t> open_index_ GUARDED_BY(mu_);
  Stats stats_;
  bool installed_ = false;
  // The tracer runs on whichever thread issues a persist; the harness is
  // single-threaded but the lock keeps stray traced persists defined.
  mutable common::Mutex mu_;
};

// Persist-shape meter: counts flushed cache lines and fences without
// snapshotting anything.  Tests pin an operation's persist cost with it —
// e.g. "an overwrite commits exactly one metadata line" — so a regression
// that widens a persist (or adds a fence) fails a unit test instead of
// only moving a benchmark.  Install/uninstall is RAII; the previous tracer
// (possibly a ShadowLog) is restored on destruction.
class FlushCounter final : public StoreTracer {
 public:
  FlushCounter() : prev_(set_store_tracer(this)) {}
  ~FlushCounter() { set_store_tracer(prev_); }

  FlushCounter(const FlushCounter&) = delete;
  FlushCounter& operator=(const FlushCounter&) = delete;

  void on_persist(const void* p, std::size_t len) override {
    ++persist_calls_;
    persist_lines_ += lines_of(p, len);
  }
  void on_nt_store(const void* dst, std::size_t len) override {
    ++nt_stores_;
    nt_lines_ += lines_of(dst, len);
  }
  void on_fence(std::uint64_t) override { ++fences_; }

  // Lines touched by persist() calls (clwb-style flushes).
  [[nodiscard]] std::uint64_t persist_lines() const noexcept {
    return persist_lines_;
  }
  [[nodiscard]] std::uint64_t persist_calls() const noexcept {
    return persist_calls_;
  }
  // Lines written through nt_copy (data movement, not metadata commits).
  [[nodiscard]] std::uint64_t nt_lines() const noexcept { return nt_lines_; }
  [[nodiscard]] std::uint64_t nt_stores() const noexcept {
    return nt_stores_;
  }
  [[nodiscard]] std::uint64_t fences() const noexcept { return fences_; }

  void reset() noexcept {
    persist_calls_ = persist_lines_ = nt_stores_ = nt_lines_ = fences_ = 0;
  }

 private:
  static std::uint64_t lines_of(const void* p, std::size_t len) noexcept {
    const auto a = reinterpret_cast<std::uintptr_t>(p);
    const std::uintptr_t first = a / kCacheLine;
    const std::uintptr_t last = (a + (len == 0 ? 0 : len - 1)) / kCacheLine;
    return last - first + 1;
  }

  StoreTracer* prev_;
  std::uint64_t persist_calls_ = 0;
  std::uint64_t persist_lines_ = 0;
  std::uint64_t nt_stores_ = 0;
  std::uint64_t nt_lines_ = 0;
  std::uint64_t fences_ = 0;
};

}  // namespace simurgh::nvmm
