#include "harness.h"

#include <bit>
#include <cstdio>
#include <cstring>

#include "common/hash.h"

namespace perfbench {

// ---- Histogram ----

std::size_t Histogram::index(std::uint64_t v) {
  if (v < kExact) return static_cast<std::size_t>(v);
  const unsigned e = 63u - static_cast<unsigned>(std::countl_zero(v));
  const unsigned shift = e - 6;  // v >> shift lands in [64, 128)
  const std::size_t i =
      kExact + static_cast<std::size_t>(e - 7) * kSub + ((v >> shift) - kSub);
  return i < kBuckets ? i : kBuckets - 1;
}

void Histogram::bounds(std::size_t i, double* lo, double* width) {
  if (i < kExact) {
    *lo = static_cast<double>(i);
    *width = 1;
    return;
  }
  const std::size_t j = i - kExact;
  const unsigned shift = static_cast<unsigned>(j / kSub) + 1;
  *lo = static_cast<double>((kSub + j % kSub) << shift);
  *width = static_cast<double>(1ull << shift);
}

double Histogram::percentile(double q) const {
  if (n_ == 0) return 0;
  const double rank = q * static_cast<double>(n_ - 1);
  double below = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (b_[i] == 0) continue;
    const double c = static_cast<double>(b_[i]);
    if (below + c > rank) {
      double lo = 0, width = 0;
      bounds(i, &lo, &width);
      return lo + width * (rank - below + 0.5) / c;
    }
    below += c;
  }
  return 0;
}

// ---- Tracer ----

namespace {
std::uint64_t lines_of(const void* p, std::size_t len) {
  const auto a = reinterpret_cast<std::uintptr_t>(p);
  return (a + (len == 0 ? 0 : len - 1)) / nvmm::kCacheLine -
         a / nvmm::kCacheLine + 1;
}

TraceTag* active_tag() {
  TraceTag* t = t_trace_tag;
  return t != nullptr && t->op < kNumOps ? t : nullptr;
}
}  // namespace

void Tracer::log(char kind, std::size_t len, const TraceTag* tag) {
  // Once the log is full, only count: the shared cursor line stays
  // read-mostly instead of bouncing between client threads.
  if (cursor_.load(std::memory_order_relaxed) >= kMaxEvents) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  const std::uint64_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
  if (i >= kMaxEvents) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  Event& e = events_[i];
  e.op_id = tag != nullptr ? tag->op_id : 0;
  e.op = static_cast<std::uint8_t>(tag != nullptr ? tag->op : kNumOps);
  e.len = static_cast<std::uint32_t>(len);
  e.kind = kind;
}

void Tracer::on_persist(const void* p, std::size_t len) {
  const std::uint64_t n = lines_of(p, len);
  if (TraceTag* t = active_tag())
    t->lines[t->op] += n;
  else
    bg_lines.fetch_add(n, std::memory_order_relaxed);
  log('p', len, active_tag());
}

void Tracer::on_nt_store(const void* /*dst*/, std::size_t len) {
  if (TraceTag* t = active_tag()) t->nt_bytes[t->op] += len;
  log('n', len, active_tag());
}

void Tracer::on_fence(std::uint64_t /*epoch*/) {
  if (TraceTag* t = active_tag()) ++t->fences[t->op];
  log('f', 0, active_tag());
}

std::size_t Tracer::logged() const {
  const std::uint64_t c = cursor_.load(std::memory_order_relaxed);
  return static_cast<std::size_t>(c < kMaxEvents ? c : kMaxEvents);
}

std::uint64_t Tracer::dropped() const {
  return dropped_.load(std::memory_order_relaxed);
}

// ---- Client ----

void Client::fail(const char* what, const std::string& detail) {
  ++failed;
  if (failed <= 5)
    std::fprintf(stderr, "perfbench: client %u: %s: %s\n", idx, what,
                 detail.c_str());
}

// ---- Instance ----

void Instance::remount_clean() {
  fs->unmount();
  fs.reset();
  shm->wipe();
  fs = core::FileSystem::mount(*nvmm, *shm);
}

void Instance::remount_after_crash() {
  fs.reset();
  shm->wipe();
  fs = core::FileSystem::mount(*nvmm, *shm);
}

// ---- tagged data ----

namespace {
constexpr std::uint64_t kMagic = 0x70657266626e6368ull;  // "perfbnch"
constexpr std::size_t kWords = kBlock / 8;

std::uint64_t tag_seed(std::uint64_t file, std::uint64_t block,
                       std::uint64_t version) {
  return mix64(mix64(mix64(file) ^ block) ^ version);
}

std::uint64_t word_at(std::uint64_t seed, std::size_t i) {
  return seed ^ (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ull);
}
}  // namespace

void fill_block(void* buf, std::uint64_t file, std::uint64_t block,
                std::uint64_t version) {
  std::uint64_t w[kWords];
  w[0] = kMagic;
  w[1] = file;
  w[2] = block;
  w[3] = version;
  const std::uint64_t seed = tag_seed(file, block, version);
  for (std::size_t i = 4; i < kWords; ++i) w[i] = word_at(seed, i);
  std::memcpy(buf, w, kBlock);
}

std::string check_block(const void* buf, std::uint64_t file,
                        std::uint64_t block, std::uint64_t version) {
  std::uint64_t w[kWords];
  std::memcpy(w, buf, kBlock);
  const std::uint64_t seed = tag_seed(file, block, version);
  bool body_ok = true;
  for (std::size_t i = 4; i < kWords; ++i)
    body_ok &= w[i] == word_at(seed, i);
  if (w[0] == kMagic && w[1] == file && w[2] == block && w[3] == version &&
      body_ok)
    return {};
  char msg[160];
  std::snprintf(msg, sizeof msg,
                "want (file %llu, block %llu, v%llu), got tag %s(file %llu, "
                "block %llu, v%llu)%s",
                static_cast<unsigned long long>(file),
                static_cast<unsigned long long>(block),
                static_cast<unsigned long long>(version),
                w[0] == kMagic ? "" : "<no magic> ",
                static_cast<unsigned long long>(w[1]),
                static_cast<unsigned long long>(w[2]),
                static_cast<unsigned long long>(w[3]),
                body_ok ? "" : ", body differs");
  return msg;
}

std::string errc_str(Errc e) { return std::string(errc_name(e)); }

}  // namespace perfbench
