// Reports which CRC-32C implementation this process runs. CRC-32C
// (common/crc32c.h) is the library's one hardware-specific kernel: on x86-64
// CPUs with SSE4.2 it runs the `crc32` instruction, everywhere else the
// table-driven software loop. The set algebra and the DBSCAN eps-scan are
// plain scalar loops on every machine.
#ifndef K2_COMMON_SIMD_H_
#define K2_COMMON_SIMD_H_

namespace k2::simd {

/// The CRC-32C path: the software table loop or the SSE4.2 instruction.
enum class Level : int {
  kScalar = 0,
  kSse42 = 1,
};

/// Human-readable level name ("scalar", "sse42").
const char* LevelName(Level level);

/// The CRC-32C path this process runs, decided once from the CPU.
Level ActiveLevel();

}  // namespace k2::simd

#endif  // K2_COMMON_SIMD_H_
