// The benches' Optane wall-clock model (bench/optane_model.h): a fence
// waits out the modeled media latency plus the calling thread's pending
// bytes at media bandwidth.  Only lower bounds on time are asserted — a
// loaded host can always stretch a wait, never shorten it.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "nvmm/device.h"
#include "nvmm/persist.h"
#include "nvmm/shadow.h"
#include "optane_model.h"

namespace simurgh::bench {
namespace {

using Clock = std::chrono::steady_clock;

// Wall-clock ns one fence() takes.
double timed_fence() {
  const auto t0 = Clock::now();
  nvmm::fence();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
          .count());
}

TEST(OptaneModel, ConstantsComeFromTheCostModel) {
  // costs.h: 500 write-latency cycles and 4.8 B/cycle at 2.5 GHz.
  EXPECT_DOUBLE_EQ(OptaneModel::kFenceBaseNs, 200.0);
  EXPECT_DOUBLE_EQ(OptaneModel::kBytesPerNs, 12.0);
}

TEST(OptaneModel, FenceWaitsBasePlusPendingBytesAtBandwidth) {
  nvmm::Device dev(1 << 20);
  std::vector<std::byte> src(512 << 10, std::byte{7});
  OptaneModel m;
  EXPECT_GE(timed_fence(), OptaneModel::kFenceBaseNs);

  nvmm::nt_copy(dev.base(), src.data(), src.size());
  // A flush drains whole lines: 2 bytes straddling a boundary are 2 lines.
  nvmm::persist(dev.base() + (768 << 10) + 63, 2);
  const std::uint64_t n = src.size() + 2 * nvmm::kCacheLine;
  EXPECT_EQ(OptaneModel::pending_bytes(), n);
  EXPECT_GE(timed_fence(),
            OptaneModel::kFenceBaseNs +
                static_cast<double>(n) / OptaneModel::kBytesPerNs);
}

TEST(OptaneModel, FenceResetsThisThreadsPendingBytes) {
  nvmm::Device dev(1 << 16);
  OptaneModel m;
  nvmm::persist(dev.base(), 4096);
  EXPECT_EQ(OptaneModel::pending_bytes(), 4096u);
  nvmm::fence();
  EXPECT_EQ(OptaneModel::pending_bytes(), 0u);
}

TEST(OptaneModel, PendingBytesArePerThread) {
  nvmm::Device dev(1 << 16);
  OptaneModel m;
  nvmm::persist(dev.base(), 4096);
  std::uint64_t other_before = 1, other_after = 1;
  std::thread([&] {
    other_before = OptaneModel::pending_bytes();
    nvmm::persist(dev.base() + 8192, 128);
    nvmm::fence();
    other_after = OptaneModel::pending_bytes();
  }).join();
  EXPECT_EQ(other_before, 0u);  // our bytes are not the other thread's
  EXPECT_EQ(other_after, 0u);
  // ...and its fence drained only its own queue, not ours.
  EXPECT_EQ(OptaneModel::pending_bytes(), 4096u);
  nvmm::fence();
}

TEST(OptaneModel, UninstallRestoresThePreviousTracer) {
  nvmm::FlushCounter fc;
  {
    OptaneModel m;
    EXPECT_EQ(nvmm::store_tracer(), &m);
    {
      nvmm::FlushCounter inner;
      EXPECT_EQ(nvmm::store_tracer(), &inner);
    }
    EXPECT_EQ(nvmm::store_tracer(), &m);
    nvmm::fence();  // the model's, not fc's
  }
  EXPECT_EQ(nvmm::store_tracer(), &fc);
  EXPECT_EQ(fc.fences(), 0u);
}

}  // namespace
}  // namespace simurgh::bench
