// Persistence primitives: the clwb/sfence/non-temporal-store model.
//
// On real Optane the library persists with cache-line write-back (clwb)
// followed by sfence, and bypasses the cache for bulk data with non-temporal
// stores (§4.3 "Data operations").  On the emulated device the stores are
// plain memory writes; what we reproduce is the *ordering discipline*.  Each
// primitive does the store or flush it models (a real clflushopt/sfence on
// x86-64 when SIMURGH_REAL_PERSIST is defined, useful on genuine pmem), a
// compiler barrier, and one relaxed load of the tracer pointer below.  With
// no tracer installed it writes nothing but its target bytes: every process
// persists its own data without touching shared state.
//
// Everything that observes persists is a StoreTracer: the flush-shape meter
// and crash-image recorder (nvmm/shadow.h), perfbench's per-op tagger, and
// the benches' Optane wall-clock model (bench/optane_model.h).
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>

namespace simurgh::nvmm {

constexpr std::size_t kCacheLine = 64;

// Observer for the persistence primitives (crash-image testing, shadow
// tracing, flush counting, timing models).  At most one tracer is installed
// process-wide; the callbacks run on the thread issuing the primitive,
// *after* the primitive's own effect.  Implementations must not call back
// into persist()/fence() (re-entrancy).
class StoreTracer {
 public:
  // [p, p+len) was written back (the bytes at p are the flushed values).
  virtual void on_persist(const void* p, std::size_t len) = 0;
  // [dst, dst+len) was written with non-temporal stores (durable only after
  // the next fence, same as a flushed-but-unfenced line).
  virtual void on_nt_store(const void* dst, std::size_t len) = 0;
  // A store fence retired: every line the issuing thread flushed/streamed
  // before it is now durable.  `seq` numbers the issuing thread's traced
  // fences (1, 2, ...); it is counted only while a tracer is installed.
  virtual void on_fence(std::uint64_t seq) = 0;

 protected:
  ~StoreTracer() = default;
};

// Installs/clears the process-wide tracer (nullptr to clear).  Returns the
// previous tracer.  Tracing is strictly opt-in: with no tracer installed the
// primitives pay exactly one relaxed pointer load.
StoreTracer* set_store_tracer(StoreTracer* t) noexcept;
StoreTracer* store_tracer() noexcept;

// Write back the cache lines covering [p, p+len).
void persist(const void* p, std::size_t len) noexcept;

// Store fence ordering all prior flushes/non-temporal stores.
void fence() noexcept;

// Non-temporal (cache-bypassing) copy of `len` bytes; the paper uses this
// for file data so writes do not pollute the CPU cache.  Durable only after
// the next fence().
void nt_copy(void* dst, const void* src, std::size_t len) noexcept;

// Convenience: store a trivially copyable value and persist it.
template <typename T>
void persist_obj(const T& obj) noexcept {
  persist(&obj, sizeof(T));
}

// Store + flush + fence: the "persist immediately" idiom for small metadata.
template <typename T>
void persist_now(const T& obj) noexcept {
  persist(&obj, sizeof(T));
  fence();
}

}  // namespace simurgh::nvmm
