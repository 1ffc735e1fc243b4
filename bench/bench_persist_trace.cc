// Guard bench for the persist hot path: store tracing (nvmm/shadow.h) must
// cost nothing when disarmed.  The tracer hook is a relaxed atomic load of
// a pointer that is null in production, and the primitives write nothing
// but their target bytes, so persist()/fence() with tracing off cost a few
// ns and stay flat from 1 to 4 threads (each thread persists its own
// lines: a shared write creeping back into the primitives shows up as the
// 4-thread arm's per-op cost climbing).  The traced variant shows the price
// the crash harness pays, which only test code ever sees.
//
//   ./bench_persist_trace
//
// Compare `persist_fence/off` against `persist_fence/off/threads:4` (per-
// thread CPU ns/op) and against `persist_fence/on`.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>

#include "nvmm/device.h"
#include "nvmm/persist.h"
#include "nvmm/shadow.h"

namespace {

constexpr std::size_t kDevBytes = 1 << 20;
constexpr int kFenceEvery = 8;

void persist_fence_loop(benchmark::State& state, bool traced) {
  simurgh::nvmm::Device dev(kDevBytes);
  std::unique_ptr<simurgh::nvmm::ShadowLog> log;
  if (traced) {
    log = std::make_unique<simurgh::nvmm::ShadowLog>(dev);
    log->start();
  }
  auto* p = reinterpret_cast<std::uint64_t*>(dev.base());
  std::uint64_t i = 0;
  int pending = 0;
  for (auto _ : state) {
    std::uint64_t* line = p + (i % (kDevBytes / 64)) * 8;
    *line = i;
    simurgh::nvmm::persist(line, 64);
    if (++pending == kFenceEvery) {
      simurgh::nvmm::fence();
      pending = 0;
    }
    ++i;
  }
  if (log) log->stop();
  state.SetItemsProcessed(static_cast<std::int64_t>(i));
}

void BM_persist_fence_off(benchmark::State& state) {
  persist_fence_loop(state, false);
}
void BM_persist_fence_on(benchmark::State& state) {
  persist_fence_loop(state, true);
}

BENCHMARK(BM_persist_fence_off)->Name("persist_fence/off");
BENCHMARK(BM_persist_fence_off)->Name("persist_fence/off")->Threads(4);
BENCHMARK(BM_persist_fence_on)->Name("persist_fence/on");

}  // namespace

BENCHMARK_MAIN();
