// Element types a Tensor can hold (DESIGN.md, "Dtype layer & SIMD
// dispatch").
//
// Training and the default serving path run on kF64 (`Scalar`); kF32 is
// the inference dtype opened end to end by the dtype-generic op layer:
// half the resident bytes per tenant and twice the SIMD lane width on the
// V=26 dense kernels that dominate the serving loop. The enum values are
// also the on-disk dtype byte of snapshot format v3, so they must never
// be renumbered.

#ifndef EMAF_TENSOR_DTYPE_H_
#define EMAF_TENSOR_DTYPE_H_

#include <cstdint>

namespace emaf::tensor {

enum class DType : uint8_t {
  kF64 = 0,  // double — training and the pinned default inference path
  kF32 = 1,  // float — opt-in inference path (ModelStoreOptions::load_dtype)
};

inline constexpr int64_t DTypeSize(DType dtype) {
  return dtype == DType::kF64 ? 8 : 4;
}

inline constexpr const char* DTypeName(DType dtype) {
  return dtype == DType::kF64 ? "f64" : "f32";
}

inline constexpr bool IsValidDType(uint8_t byte) {
  return byte == static_cast<uint8_t>(DType::kF64) ||
         byte == static_cast<uint8_t>(DType::kF32);
}

// The DType tag for a C++ scalar type; the primary template is left
// undefined so any other element type fails to compile.
template <typename T>
struct DTypeOf;
template <>
struct DTypeOf<double> {
  static constexpr DType value = DType::kF64;
};
template <>
struct DTypeOf<float> {
  static constexpr DType value = DType::kF32;
};

}  // namespace emaf::tensor

#endif  // EMAF_TENSOR_DTYPE_H_
