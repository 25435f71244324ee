#include "src/util/crc32c.h"

#include <array>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define CHAMELEON_CRC32C_X86 1
#include <nmmintrin.h>
#endif

namespace chameleon {
namespace {

// Slice-by-4 tables for the reflected Castagnoli polynomial, generated
// at compile time. table[0] is the classic byte-at-a-time table;
// table[k][b] is table[0] advanced k extra zero bytes, letting the loop
// fold four input bytes per iteration.
constexpr uint32_t kPoly = 0x82F63B78u;

constexpr std::array<std::array<uint32_t, 256>, 4> MakeTables() {
  std::array<std::array<uint32_t, 256>, 4> t{};
  for (uint32_t b = 0; b < 256; ++b) {
    uint32_t crc = b;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1) ? kPoly : 0);
    }
    t[0][b] = crc;
  }
  for (uint32_t b = 0; b < 256; ++b) {
    for (int k = 1; k < 4; ++k) {
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFF];
    }
  }
  return t;
}

constexpr auto kTables = MakeTables();

}  // namespace

namespace crc32c_internal {

uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  crc = ~crc;
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = kTables[3][crc & 0xFF] ^ kTables[2][(crc >> 8) & 0xFF] ^
          kTables[1][(crc >> 16) & 0xFF] ^ kTables[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n > 0) {
    crc = (crc >> 8) ^ kTables[0][(crc ^ *p++) & 0xFF];
    --n;
  }
  return ~crc;
}

#if defined(CHAMELEON_CRC32C_X86)

namespace {

// The hardware path runs three independent `crc32` chains over
// consecutive kStreamBytes blocks and merges them by advancing a chain's
// register over kStreamBytes zero bytes. CRC is linear, so that advance
// is the XOR of four lookups: kZeroExtend[k][b] is a register holding b
// in byte k and zeros elsewhere, advanced. The tables are built from
// the 32 single-bit registers, each advanced byte by byte (few enough
// steps for any compiler's constexpr limit).
constexpr size_t kStreamBytes = 256;

constexpr std::array<std::array<uint32_t, 256>, 4> MakeZeroExtendTables() {
  std::array<uint32_t, 32> bit{};
  for (int i = 0; i < 32; ++i) {
    uint32_t crc = 1u << i;
    for (size_t z = 0; z < kStreamBytes; ++z) {
      crc = (crc >> 8) ^ kTables[0][crc & 0xFF];
    }
    bit[i] = crc;
  }
  std::array<std::array<uint32_t, 256>, 4> t{};
  for (int k = 0; k < 4; ++k) {
    for (uint32_t b = 0; b < 256; ++b) {
      for (int j = 0; j < 8; ++j) {
        if ((b >> j) & 1) t[k][b] ^= bit[8 * k + j];
      }
    }
  }
  return t;
}

constexpr auto kZeroExtend = MakeZeroExtendTables();

// Advances a raw CRC register over kStreamBytes zero bytes.
inline uint32_t ZeroExtend(uint32_t crc) {
  return kZeroExtend[0][crc & 0xFF] ^ kZeroExtend[1][(crc >> 8) & 0xFF] ^
         kZeroExtend[2][(crc >> 16) & 0xFF] ^ kZeroExtend[3][crc >> 24];
}

}  // namespace

__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t crc,
                                                          const void* data,
                                                          size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t c = ~crc;
  // `crc32` has a latency of three cycles and a throughput of one, so a
  // single chain leaves two thirds of the unit idle. Inputs of three
  // blocks or more (Disk pages; not WAL records) run three chains per
  // round, the second and third from a zero register, and fold them in
  // order: advance over a block, XOR in the next chain.
  while (n >= 3 * kStreamBytes) {
    uint64_t c1 = 0;
    uint64_t c2 = 0;
    for (size_t i = 0; i < kStreamBytes; i += 8) {
      uint64_t chunk0;
      uint64_t chunk1;
      uint64_t chunk2;
      __builtin_memcpy(&chunk0, p + i, 8);
      __builtin_memcpy(&chunk1, p + kStreamBytes + i, 8);
      __builtin_memcpy(&chunk2, p + 2 * kStreamBytes + i, 8);
      c = _mm_crc32_u64(c, chunk0);
      c1 = _mm_crc32_u64(c1, chunk1);
      c2 = _mm_crc32_u64(c2, chunk2);
    }
    c = ZeroExtend(static_cast<uint32_t>(c)) ^ c1;
    c = ZeroExtend(static_cast<uint32_t>(c)) ^ c2;
    p += 3 * kStreamBytes;
    n -= 3 * kStreamBytes;
  }
  while (n >= 8) {
    uint64_t chunk;
    __builtin_memcpy(&chunk, p, 8);
    c = _mm_crc32_u64(c, chunk);
    p += 8;
    n -= 8;
  }
  auto c32 = static_cast<uint32_t>(c);
  while (n > 0) {
    c32 = _mm_crc32_u8(c32, *p++);
    --n;
  }
  return ~c32;
}

bool HardwareAvailable() {
  static const bool available = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
  }();
  return available;
}

#else

uint32_t ExtendHardware(uint32_t crc, const void* data, size_t n) {
  return ExtendPortable(crc, data, n);
}

bool HardwareAvailable() { return false; }

#endif

}  // namespace crc32c_internal

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  static const auto extend = crc32c_internal::HardwareAvailable()
                                 ? &crc32c_internal::ExtendHardware
                                 : &crc32c_internal::ExtendPortable;
  return extend(crc, data, n);
}

}  // namespace chameleon
