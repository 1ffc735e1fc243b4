#include "nvmm/shadow.h"

#include <cstring>

#include "common/status.h"

namespace simurgh::nvmm {

ShadowLog::ShadowLog(Device& dev) : dev_(&dev) {
  snapshot_.resize(dev.size());
  std::memcpy(snapshot_.data(), dev.base(), dev.size());
}

ShadowLog::~ShadowLog() { stop(); }

void ShadowLog::start() {
  SIMURGH_CHECK(!installed_);
  set_store_tracer(this);
  installed_ = true;
}

void ShadowLog::stop() {
  if (!installed_) return;
  set_store_tracer(nullptr);
  installed_ = false;
}

void ShadowLog::log_range(const void* p, std::size_t len) {
  if (len == 0) return;
  const auto* b = static_cast<const std::byte*>(p);
  // Clamp to the traced device; persists of DRAM/shm structures are not
  // part of this device's crash state.
  if (!dev_->contains(b) || !dev_->contains(b + len - 1)) return;
  const std::uint64_t off = dev_->offset_of(b);
  const std::uint64_t first = off / kCacheLine * kCacheLine;
  const std::uint64_t last = (off + len - 1) / kCacheLine * kCacheLine;
  for (std::uint64_t line = first; line <= last; line += kCacheLine) {
    auto [it, fresh] = open_index_.try_emplace(line, open_.size());
    if (fresh) {
      open_.emplace_back();
      open_.back().off = line;
      ++stats_.lines_logged;
    }
    // Capture the line's current (post-store) bytes; a later re-flush of
    // the same line before the fence overwrites the capture, matching a
    // cache line that is written back twice.
    std::memcpy(open_[it->second].bytes.data(), dev_->base() + line,
                kCacheLine);
  }
}

void ShadowLog::on_persist(const void* p, std::size_t len) {
  common::MutexLock lock(mu_);
  if (dev_->contains(p)) ++stats_.persists;
  log_range(p, len);
}

void ShadowLog::on_nt_store(const void* dst, std::size_t len) {
  common::MutexLock lock(mu_);
  if (dev_->contains(dst)) ++stats_.nt_stores;
  log_range(dst, len);
}

void ShadowLog::on_fence(std::uint64_t /*seq*/) {
  common::MutexLock lock(mu_);
  ++stats_.fences;
  Window w;
  w.patches = std::move(open_);
  stats_.max_window_lines = std::max(stats_.max_window_lines, w.lines());
  windows_.push_back(std::move(w));
  open_.clear();
  open_index_.clear();
}

void ShadowLog::seal() {
  common::MutexLock lock(mu_);
  if (open_.empty()) return;
  Window w;
  w.patches = std::move(open_);
  stats_.max_window_lines = std::max(stats_.max_window_lines, w.lines());
  windows_.push_back(std::move(w));
  open_.clear();
  open_index_.clear();
}

void ShadowLog::materialize(std::size_t f, const std::vector<bool>& take,
                            Device& out) const {
  common::MutexLock lock(mu_);
  SIMURGH_CHECK(out.size() >= snapshot_.size());
  SIMURGH_CHECK(f <= windows_.size());
  std::memcpy(out.base(), snapshot_.data(), snapshot_.size());
  auto apply = [&](const Patch& p) {
    std::memcpy(out.base() + p.off, p.bytes.data(), kCacheLine);
  };
  for (std::size_t w = 0; w < f; ++w)
    for (const Patch& p : windows_[w].patches) apply(p);
  if (f == windows_.size()) return;
  const Window& win = windows_[f];
  SIMURGH_CHECK(take.size() >= win.patches.size());
  for (std::size_t i = 0; i < win.patches.size(); ++i)
    if (take[i]) apply(win.patches[i]);
}

void ShadowLog::materialize_mask(std::size_t f, std::uint64_t mask,
                                 Device& out) const {
  std::vector<bool> take;
  if (f < windows_.size()) {
    const std::size_t k = windows_[f].lines();
    SIMURGH_CHECK(k <= 64);
    take.resize(k);
    for (std::size_t i = 0; i < k; ++i) take[i] = (mask >> i) & 1;
  }
  materialize(f, take, out);
}

}  // namespace simurgh::nvmm
