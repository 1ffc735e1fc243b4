// Striped event counters for hot-path statistics.
//
// A counter that every thread bumps on one shared cache line turns each
// cached read into a cross-core line transfer.  A StripedCounter gives each
// thread its own cache-line-padded cell instead: add() is a relaxed load and
// store on the caller's cell (no lock-prefixed RMW, no shared line), and a
// read sums the cells.  A thread picks its cell once, round-robin, so counts
// are exact while no more than kCells threads add concurrently; beyond that
// two threads may share a cell and a racing add can be lost, which is fine
// for statistics.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>

namespace simurgh::common {

class StripedCounter {
 public:
  static constexpr std::size_t kCells = 16;

  void add(std::uint64_t n = 1) noexcept {
    std::atomic<std::uint64_t>& c = cells_[cell_index()].v;
    c.store(c.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t load() const noexcept {
    std::uint64_t sum = 0;
    for (const Cell& c : cells_) sum += c.v.load(std::memory_order_relaxed);
    return sum;
  }

  void reset() noexcept {
    for (Cell& c : cells_) c.v.store(0, std::memory_order_relaxed);
  }

 private:
  struct alignas(64) Cell {
    std::atomic<std::uint64_t> v{0};
  };

  static std::size_t cell_index() noexcept {
    static std::atomic<std::size_t> next{0};
    thread_local const std::size_t idx =
        next.fetch_add(1, std::memory_order_relaxed) % kCells;
    return idx;
  }

  Cell cells_[kCells];
};

}  // namespace simurgh::common
