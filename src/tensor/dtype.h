// The element-type byte of snapshot format v3 (DESIGN.md, "Snapshot
// format"; nn/serialize.h).
//
// Every tensor holds f64 (`Scalar`). The enum survives only because each
// v3 parameter record carries this byte: 0 is an 8-byte f64 payload, 1 a
// 4-byte f32 payload that the reader widens to f64. The values are on
// disk, so they must never be renumbered.

#ifndef EMAF_TENSOR_DTYPE_H_
#define EMAF_TENSOR_DTYPE_H_

#include <cstdint>

namespace emaf::tensor {

enum class DType : uint8_t {
  kF64 = 0,  // double — what every tensor holds and every writer emits
  kF32 = 1,  // float — read only, widened to f64 on load
};

inline constexpr bool IsValidDType(uint8_t byte) {
  return byte == static_cast<uint8_t>(DType::kF64) ||
         byte == static_cast<uint8_t>(DType::kF32);
}

}  // namespace emaf::tensor

#endif  // EMAF_TENSOR_DTYPE_H_
