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

__attribute__((target("sse4.2"))) uint32_t ExtendHardware(uint32_t crc,
                                                          const void* data,
                                                          size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  uint64_t c = ~crc;
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
