// Structural byte scanning for the vectorized CSV path: classify every
// ',', '\n', and '"' in a buffer in one pass, emitting tagged offsets the
// batch reader walks instead of calling find() per field.
//
// Three implementations behind one entry point, chosen at build time by
// the SCOOP_ENABLE_SIMD CMake option (AUTO probes the toolchain):
//  * SSE2: 16-byte compares + movemask (x86-64 baseline, no extra flags),
//  * SWAR: 8-byte "SIMD within a register" bit tricks, portable C++,
//  * scalar tail loop for the final sub-block bytes of either path.
// All three produce bit-identical position streams; tests assert it.
//
// This header/source pair is the ONLY place allowed to include CPU
// intrinsics headers (tools/scoop_check intrinsics-include enforces this), so
// platform dispatch never leaks into the data plane.
#ifndef SCOOP_COLUMNAR_SIMD_H_
#define SCOOP_COLUMNAR_SIMD_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace scoop {

// Tag bits packed into the top of each emitted offset. Offsets are
// 30-bit, which bounds a single scanned buffer at 1 GiB — far above the
// object-chunk sizes the data plane feeds through this scanner.
enum : uint32_t {
  kCsvTagComma = 0u << 30,
  kCsvTagNewline = 1u << 30,
  kCsvTagQuote = 2u << 30,
  kCsvTagMask = 3u << 30,
  kCsvOffsetMask = ~(3u << 30),
};

// Appends one tagged offset per structural byte (',', '\n', '"') in
// `data` to `out`, in order. Offsets are relative to `data`.
void ScanCsvStructural(const char* data, size_t size,
                       std::vector<uint32_t>* out);

// True when the SSE2 path is compiled in (SCOOP_ENABLE_SIMD resolved ON).
bool SimdEnabled();

// Bytes `ScanCsvStructural` has pushed through the block classifier
// (SSE2 or SWAR) since process start, feeding the csv.simd_bytes
// counter. Scalar-tail bytes are excluded. Monotonic, thread-safe.
uint64_t SimdBytesScanned();

}  // namespace scoop

#endif  // SCOOP_COLUMNAR_SIMD_H_
