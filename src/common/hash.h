// Hash functions used across the file-system layers.
//
// Directory blocks hash file names (fnv1a64); allocators and the harness mix
// integers (splitmix64); the integrity layer checksums data blocks (crc32c).
// All are deterministic across runs and platforms so that on-media layouts
// and benchmark workloads are reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace simurgh {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;

constexpr std::uint64_t fnv1a64(std::string_view s,
                                std::uint64_t seed = kFnvOffset) noexcept {
  std::uint64_t h = seed;
  for (char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

// Finalizer from the splitmix64 generator; a strong 64->64 bit mixer.
constexpr std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

namespace detail {

// One bit step of the reflected Castagnoli register (polynomial 0x82f63b78):
// multiplies the register by x modulo the polynomial.
constexpr std::uint32_t crc32c_step(std::uint32_t c) noexcept {
  return (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
}

// Slice-by-8 lookup tables for the software path.  Built once on first use;
// the hardware path below produces bit-identical results, so images
// checksummed on one host verify on any other.
struct Crc32cTables {
  std::uint32_t t[8][256];
  Crc32cTables() noexcept {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = crc32c_step(c);
      t[0][i] = c;
    }
    for (std::uint32_t i = 0; i < 256; ++i)
      for (unsigned j = 1; j < 8; ++j)
        t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xffu];
  }
};

inline std::uint32_t crc32c_sw(const void* data, std::size_t n,
                               std::uint32_t crc) noexcept {
  static const Crc32cTables tbl;
  const auto* p = static_cast<const unsigned char*>(data);
  while (n >= 8) {
    std::uint64_t w;
    __builtin_memcpy(&w, p, 8);
    w ^= crc;  // little-endian: low 4 bytes fold in the running crc
    crc = tbl.t[7][w & 0xff] ^ tbl.t[6][(w >> 8) & 0xff] ^
          tbl.t[5][(w >> 16) & 0xff] ^ tbl.t[4][(w >> 24) & 0xff] ^
          tbl.t[3][(w >> 32) & 0xff] ^ tbl.t[2][(w >> 40) & 0xff] ^
          tbl.t[1][(w >> 48) & 0xff] ^ tbl.t[0][(w >> 56) & 0xff];
    p += 8;
    n -= 8;
  }
  while (n > 0) {
    crc = tbl.t[0][(crc ^ *p) & 0xff] ^ (crc >> 8);
    ++p;
    --n;
  }
  return crc;
}

#if defined(__x86_64__)
// The hardware kernel runs three independent crc32q chains, one per third of
// a 3 * kCrc32cStream stripe: the instruction has a 3-cycle latency but a
// 1-per-cycle throughput, so one dependent chain leaves it two-thirds idle.
// A 4 KiB block is one 4080-byte stripe plus a 16-byte serial tail.
constexpr std::size_t kCrc32cStream = 1360;

// Appends kCrc32cStream zero bytes to a raw CRC register.  That map is
// linear over GF(2), so it is tabulated per register byte and applied as
// the XOR of four lookups.  It folds the chains together, because
// crc(c, A || B) == shift_|B|(crc(c, A)) ^ crc(0, B).
struct Crc32cShift {
  std::uint32_t t[4][256] = {};
  constexpr Crc32cShift() noexcept {
    // basis[i] is register bit i after the zeros.  Bit 31 pays for all the
    // zero bits; bit i - 1 is bit i times x, one step further.
    std::uint32_t basis[32] = {};
    std::uint32_t c = 1u << 31;
    for (std::size_t k = 0; k < 8 * kCrc32cStream; ++k) c = crc32c_step(c);
    for (int i = 31; i >= 0; --i) {
      basis[i] = c;
      c = crc32c_step(c);
    }
    for (unsigned k = 0; k < 4; ++k)
      for (unsigned b = 0; b < 256; ++b)
        for (unsigned j = 0; j < 8; ++j)
          if ((b >> j) & 1) t[k][b] ^= basis[8 * k + j];
  }
  constexpr std::uint32_t operator()(std::uint32_t c) const noexcept {
    return t[0][c & 0xff] ^ t[1][(c >> 8) & 0xff] ^ t[2][(c >> 16) & 0xff] ^
           t[3][c >> 24];
  }
};
inline constexpr Crc32cShift kCrc32cShift{};

inline std::uint64_t crc32c_u64(std::uint64_t c,
                                const unsigned char* p) noexcept {
  std::uint64_t w;
  __builtin_memcpy(&w, p, 8);
  asm("crc32q %1, %0" : "+r"(c) : "rm"(w));
  return c;
}

inline std::uint32_t crc32c_hw(const void* data, std::size_t n,
                               std::uint32_t crc) noexcept {
  constexpr std::size_t kStripe = 3 * kCrc32cStream;
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint64_t c = crc;
  for (; n >= kStripe; n -= kStripe, p += kStripe) {
    std::uint64_t c1 = 0, c2 = 0;
    for (std::size_t i = 0; i < kCrc32cStream; i += 8) {
      c = crc32c_u64(c, p + i);
      c1 = crc32c_u64(c1, p + kCrc32cStream + i);
      c2 = crc32c_u64(c2, p + 2 * kCrc32cStream + i);
    }
    c = kCrc32cShift(kCrc32cShift(static_cast<std::uint32_t>(c)) ^
                     static_cast<std::uint32_t>(c1)) ^
        c2;
  }
  for (; n >= 8; n -= 8, p += 8) c = crc32c_u64(c, p);
  crc = static_cast<std::uint32_t>(c);
  for (; n > 0; --n, ++p) asm("crc32b %1, %0" : "+r"(crc) : "qm"(*p));
  return crc;
}
#endif

}  // namespace detail

// CRC32C (Castagnoli) of a byte range, inverted on entry and exit; `seed`
// chains, so crc32c(b, nb, crc32c(a, na)) is the CRC of a followed by b.
// Every integrity checksum (core/integrity.h: write stamps, the scrubber,
// verify_reads, fsck) lands here.  With SSE4.2 the three-stream crc32q
// kernel runs, else slice-by-8; both give the same bits for every length,
// alignment and seed, so stored checksums never depend on the host.  The
// instruction is detected at runtime and issued by inline asm rather than
// -msse4.2, which would taint the whole translation unit's code generation.
inline std::uint32_t crc32c(const void* data, std::size_t n,
                            std::uint32_t seed = 0) noexcept {
  const std::uint32_t crc = ~seed;
#if defined(__x86_64__)
  static const bool hw = __builtin_cpu_supports("sse4.2");
  if (hw) return ~detail::crc32c_hw(data, n, crc);
#endif
  return ~detail::crc32c_sw(data, n, crc);
}

}  // namespace simurgh
