#ifndef CHAMELEON_UTIL_CRC32C_H_
#define CHAMELEON_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace chameleon {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected 0x82F63B78) —
/// the checksum guarding every persistent byte: Disk data pages and the
/// page-file header (src/tiered/page_file.cc), WAL records
/// (src/storage/wal.cc), snapshot headers and payloads
/// (src/storage/snapshot.cc) and the shard manifest
/// (src/engine/sharded_index.cc).
///
/// The path is chosen once per process at run time: on an x86-64 CPU
/// with SSE4.2 the `crc32` instruction (compiled per function, so the
/// build needs no -msse4.2), otherwise slice-by-4 tables. The
/// instruction path runs inputs of 768 bytes or more (a Disk page, a
/// snapshot payload) as three interleaved 256-byte chains per round,
/// which cuts a 4088-byte page check to under half; shorter inputs
/// (every WAL record) take one chain. Both paths produce bit-identical
/// values, so files written on one host verify on any other.
///
/// `Crc32c(data, n)` is the standard one-shot form (e.g.
/// Crc32c("123456789", 9) == 0xE3069283). `Crc32cExtend` continues a
/// running checksum so callers can checksum a record assembled in
/// pieces without concatenating buffers.
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

inline uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

/// The two paths behind Crc32cExtend, exposed for the differential
/// tests and build provenance only; callers use Crc32cExtend.
namespace crc32c_internal {
uint32_t ExtendPortable(uint32_t crc, const void* data, size_t n);
/// Only callable when HardwareAvailable(); elsewhere it falls back to
/// ExtendPortable. Must equal ExtendPortable on every input: the
/// three-chain rounds are an internal schedule, not a format.
uint32_t ExtendHardware(uint32_t crc, const void* data, size_t n);
/// True when this CPU runs the `crc32` instruction (cpuid, checked once).
bool HardwareAvailable();
}  // namespace crc32c_internal

}  // namespace chameleon

#endif  // CHAMELEON_UTIL_CRC32C_H_
