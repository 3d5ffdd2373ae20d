// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) — the
// checksum guarding every durable byte of the LSM write path: WAL record
// frames, the SSTable footer's metadata region, and the MANIFEST trailer.
// Castagnoli rather than the zlib polynomial for its better burst-error
// detection — and because SSE4.2 implements exactly this polynomial in
// hardware. Crc32c runs the `crc32` instruction when the CPU has SSE4.2
// (checked once) and the table-driven Crc32cPortable otherwise; both give
// the same checksum. ActiveLevel() in common/simd.h reports which one runs.
#ifndef K2_COMMON_CRC32C_H_
#define K2_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace k2 {

/// CRC-32C of `n` bytes starting at `data`, continuing from `seed` (pass 0
/// for a fresh checksum; pass a previous return value to extend it).
uint32_t Crc32c(const void* data, size_t n, uint32_t seed = 0);

/// The table-driven software CRC-32C: the only path on CPUs without SSE4.2,
/// and the reference the hardware path is tested against.
uint32_t Crc32cPortable(const void* data, size_t n, uint32_t seed = 0);

}  // namespace k2

#endif  // K2_COMMON_CRC32C_H_
