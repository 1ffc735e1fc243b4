#include "core/lookup_cache.h"

#include <cstring>

#include "common/hash.h"
#include "core/layout.h"

namespace simurgh::core {

namespace {

// Seed differs from the directory-line hash so cache indices and hash-block
// lines decorrelate (a line-crowding adversary does not also crowd slots).
constexpr std::uint64_t kCacheSeed = 0x9ae16a3b2f90404full;
// And the whole-path table uses its own seed so both caches never crowd the
// same way for the same workload.
constexpr std::uint64_t kPathSeed = 0xc3a5c85c97cb3127ull;

std::size_t round_pow2(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

// Stats are monotone hints, not invariants: a plain load+store bump keeps
// the hot path free of lock-prefixed RMWs (a lost increment under a racing
// bump is acceptable).
inline void bump(std::atomic<std::uint64_t>& c) noexcept {
  c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
}

// Packs a string into u64 words (zero-padded) for word-wise atomic storage.
void pack_words(std::string_view s, std::uint64_t* words,
                std::size_t n_words) noexcept {
  std::memset(words, 0, n_words * 8);
  std::memcpy(words, s.data(), s.size());
}

// Word-wise compare of `s` against packed storage, touching only the words
// the string actually spans (stored words are zero-padded, so a shorter
// prefix can never alias once the lengths matched).
bool words_equal(std::string_view s, const std::uint64_t* words) noexcept {
  const std::size_t full = s.size() / 8;
  for (std::size_t i = 0; i < full; ++i) {
    std::uint64_t w;
    std::memcpy(&w, s.data() + i * 8, 8);
    if (w != words[i]) return false;
  }
  const std::size_t rest = s.size() - full * 8;
  if (rest != 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + full * 8, rest);
    if (w != words[full]) return false;
  }
  return true;
}

// Word-at-a-time hash for whole paths: one multiply-mix per 8 bytes instead
// of fnv's per-byte dependency chain — the path hash sits on the whole-path
// hit path, where ~30-120 input bytes of byte-wise fnv would be a
// measurable fraction of the total.  Internal to this table, so the exact
// function only needs to be deterministic within a process lifetime.
std::uint64_t hash_path(std::string_view s, std::uint64_t seed) noexcept {
  std::uint64_t h = seed ^ (s.size() * 0x9e3779b97f4a7c15ull);
  const std::size_t full = s.size() / 8;
  for (std::size_t i = 0; i < full; ++i) {
    std::uint64_t w;
    std::memcpy(&w, s.data() + i * 8, 8);
    h = mix64(h ^ w);
  }
  const std::size_t rest = s.size() - full * 8;
  if (rest != 0) {
    std::uint64_t w = 0;
    std::memcpy(&w, s.data() + full * 8, rest);
    h = mix64(h ^ w);
  }
  return h;
}

}  // namespace

LookupCache::LookupCache(std::size_t slots)
    : slots_(new Slot[round_pow2(slots < 64 ? 64 : slots)]),
      n_slots_(round_pow2(slots < 64 ? 64 : slots)),
      mask_(n_slots_ - 1) {}

LookupCache::Slot& LookupCache::slot_for(std::uint64_t parent_off,
                                         std::string_view name) noexcept {
  const std::uint64_t h =
      fnv1a64(name, kCacheSeed) ^ mix64(parent_off);
  return slots_[h & mask_];
}

bool LookupCache::get(std::uint64_t parent_off, std::string_view name,
                      std::uint64_t dir_epoch, Binding& out) noexcept {
  if (!cacheable(name)) {
    bump(misses_);
    return false;
  }
  Slot& s = slot_for(parent_off, name);
  const std::uint64_t seq1 = s.seq.load(std::memory_order_acquire);
  if ((seq1 & 1) != 0) {
    bump(misses_);
    return false;  // mid-write
  }
  const std::uint64_t parent = s.parent.load(std::memory_order_relaxed);
  const std::uint64_t fentry = s.fentry.load(std::memory_order_relaxed);
  const std::uint64_t inode = s.inode.load(std::memory_order_relaxed);
  const std::uint64_t epoch = s.epoch.load(std::memory_order_relaxed);
  const std::uint64_t len = s.name_len.load(std::memory_order_relaxed);
  std::uint64_t words[kNameWords];
  const std::size_t nw = (name.size() + 7) / 8;
  for (std::size_t i = 0; i < nw; ++i)
    words[i] = s.name[i].load(std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_acquire);
  if (s.seq.load(std::memory_order_relaxed) != seq1) {
    bump(misses_);
    return false;  // torn by a concurrent fill
  }
  if (parent != parent_off || len != name.size() ||
      !words_equal(name, words) || inode == 0) {
    bump(misses_);
    return false;
  }
  if (epoch != dir_epoch) {
    bump(conflicts_);
    return false;  // directory mutated since the fill
  }
  out.fentry_off = fentry;
  out.inode_off = inode;
  bump(hits_);
  return true;
}

void LookupCache::put(std::uint64_t parent_off, std::string_view name,
                      std::uint64_t dir_epoch, std::uint64_t fentry_off,
                      std::uint64_t inode_off) noexcept {
  if (!cacheable(name) || inode_off == 0) return;
  Slot& s = slot_for(parent_off, name);
  std::uint64_t seq = s.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0) return;  // another fill in flight; theirs wins
  if (!s.seq.compare_exchange_strong(seq, seq + 1,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed))
    return;
  s.parent.store(parent_off, std::memory_order_relaxed);
  s.fentry.store(fentry_off, std::memory_order_relaxed);
  s.inode.store(inode_off, std::memory_order_relaxed);
  s.epoch.store(dir_epoch, std::memory_order_relaxed);
  s.name_len.store(name.size(), std::memory_order_relaxed);
  std::uint64_t words[kNameWords];
  pack_words(name, words, kNameWords);
  for (std::size_t i = 0; i < kNameWords; ++i)
    s.name[i].store(words[i], std::memory_order_relaxed);
  s.seq.store(seq + 2, std::memory_order_release);
  bump(fills_);
}

void LookupCache::clear() noexcept {
  for (std::size_t i = 0; i < n_slots_; ++i) {
    Slot& s = slots_[i];
    std::uint64_t seq = s.seq.load(std::memory_order_relaxed);
    if ((seq & 1) != 0) continue;
    if (!s.seq.compare_exchange_strong(seq, seq + 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed))
      continue;
    s.inode.store(0, std::memory_order_relaxed);
    s.parent.store(0, std::memory_order_relaxed);
    s.name_len.store(0, std::memory_order_relaxed);
    s.seq.store(seq + 2, std::memory_order_release);
  }
}

LookupCacheStats LookupCache::stats() const noexcept {
  LookupCacheStats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.conflicts = conflicts_.load(std::memory_order_relaxed);
  st.fills = fills_.load(std::memory_order_relaxed);
  return st;
}

void LookupCache::reset_stats() noexcept {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  conflicts_.store(0, std::memory_order_relaxed);
  fills_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// PathCache

PathCache::PathCache(std::size_t slots)
    : slots_(new Slot[round_pow2(slots < 64 ? 64 : slots)]),
      n_slots_(round_pow2(slots < 64 ? 64 : slots)),
      mask_(n_slots_ - 1) {}

PathCache::Slot& PathCache::slot_for(std::uint64_t cred_key,
                                     std::string_view path) noexcept {
  const std::uint64_t h = hash_path(path, kPathSeed) ^ mix64(cred_key);
  return slots_[h & mask_];
}

bool PathCache::get(std::uint64_t cred_key, std::string_view path,
                    Entry& out) noexcept {
  if (!cacheable(path)) {
    bump(misses_);
    return false;
  }
  Slot& s = slot_for(cred_key, path);
  const std::uint64_t seq1 = s.seq.load(std::memory_order_acquire);
  if ((seq1 & 1) != 0) {
    bump(misses_);
    return false;  // mid-write
  }
  const std::uint64_t cred = s.cred.load(std::memory_order_relaxed);
  const std::uint64_t len = s.path_len.load(std::memory_order_relaxed);
  std::uint64_t words[kPathWords];
  const std::size_t nw = (path.size() + 7) / 8;
  for (std::size_t i = 0; i < nw; ++i)
    words[i] = s.path[i].load(std::memory_order_relaxed);
  out.parent_off = s.parent.load(std::memory_order_relaxed);
  out.inode_off = s.inode.load(std::memory_order_relaxed);
  const std::uint64_t leaf = s.leaf.load(std::memory_order_relaxed);
  std::uint64_t nd = s.n_dirs.load(std::memory_order_relaxed);
  if (nd > kMaxChain) nd = kMaxChain;  // torn slot; seq recheck catches it
  for (std::uint64_t i = 0; i < nd; ++i) {
    out.dirs[i] = s.dirs[i].load(std::memory_order_relaxed);
    out.epochs[i] = s.epochs[i].load(std::memory_order_relaxed);
    out.buckets[i] = static_cast<std::uint32_t>(
        s.buckets[i].load(std::memory_order_relaxed));
  }
  std::atomic_thread_fence(std::memory_order_acquire);
  if (s.seq.load(std::memory_order_relaxed) != seq1) {
    bump(misses_);
    return false;  // torn by a concurrent fill
  }
  if (cred != cred_key || len != path.size() ||
      !words_equal(path, words) || out.inode_off == 0 || nd == 0) {
    bump(misses_);
    return false;
  }
  out.leaf_pos = static_cast<std::uint32_t>(leaf >> 32);
  out.leaf_len = static_cast<std::uint32_t>(leaf & 0xffffffffu);
  out.n_dirs = static_cast<std::uint32_t>(nd);
  return true;  // caller validates the chain, then note_hit/note_conflict
}

void PathCache::put(std::uint64_t cred_key, std::string_view path,
                    const Entry& e) noexcept {
  if (!cacheable(path) || e.inode_off == 0 || e.n_dirs == 0 ||
      e.n_dirs > kMaxChain)
    return;
  Slot& s = slot_for(cred_key, path);
  std::uint64_t seq = s.seq.load(std::memory_order_relaxed);
  if ((seq & 1) != 0) return;  // another fill in flight; theirs wins
  if (!s.seq.compare_exchange_strong(seq, seq + 1,
                                     std::memory_order_acquire,
                                     std::memory_order_relaxed))
    return;
  s.cred.store(cred_key, std::memory_order_relaxed);
  s.path_len.store(path.size(), std::memory_order_relaxed);
  std::uint64_t words[kPathWords];
  pack_words(path, words, kPathWords);
  for (std::size_t i = 0; i < kPathWords; ++i)
    s.path[i].store(words[i], std::memory_order_relaxed);
  s.parent.store(e.parent_off, std::memory_order_relaxed);
  s.inode.store(e.inode_off, std::memory_order_relaxed);
  s.leaf.store((static_cast<std::uint64_t>(e.leaf_pos) << 32) | e.leaf_len,
               std::memory_order_relaxed);
  s.n_dirs.store(e.n_dirs, std::memory_order_relaxed);
  for (std::uint32_t i = 0; i < e.n_dirs; ++i) {
    s.dirs[i].store(e.dirs[i], std::memory_order_relaxed);
    s.epochs[i].store(e.epochs[i], std::memory_order_relaxed);
    s.buckets[i].store(e.buckets[i], std::memory_order_relaxed);
  }
  s.seq.store(seq + 2, std::memory_order_release);
  bump(fills_);
}

void PathCache::clear() noexcept {
  for (std::size_t i = 0; i < n_slots_; ++i) {
    Slot& s = slots_[i];
    std::uint64_t seq = s.seq.load(std::memory_order_relaxed);
    if ((seq & 1) != 0) continue;
    if (!s.seq.compare_exchange_strong(seq, seq + 1,
                                       std::memory_order_acquire,
                                       std::memory_order_relaxed))
      continue;
    s.inode.store(0, std::memory_order_relaxed);
    s.cred.store(0, std::memory_order_relaxed);
    s.path_len.store(0, std::memory_order_relaxed);
    s.n_dirs.store(0, std::memory_order_relaxed);
    s.seq.store(seq + 2, std::memory_order_release);
  }
}

void PathCache::note_hit() noexcept { bump(hits_); }

void PathCache::note_conflict() noexcept { bump(conflicts_); }

LookupCacheStats PathCache::stats() const noexcept {
  LookupCacheStats st;
  st.hits = hits_.load(std::memory_order_relaxed);
  st.misses = misses_.load(std::memory_order_relaxed);
  st.conflicts = conflicts_.load(std::memory_order_relaxed);
  st.fills = fills_.load(std::memory_order_relaxed);
  return st;
}

void PathCache::reset_stats() noexcept {
  hits_.store(0, std::memory_order_relaxed);
  misses_.store(0, std::memory_order_relaxed);
  conflicts_.store(0, std::memory_order_relaxed);
  fills_.store(0, std::memory_order_relaxed);
}

}  // namespace simurgh::core
