// Runtime-dispatched f32 matmul: an AVX2/FMA arm and a scalar fallback
// that produce bitwise-identical results (DESIGN.md, "Dtype layer & SIMD
// dispatch").
//
// Dispatch: Enabled() is true when the CPU reports AVX2+FMA and the
// process was not started with EMAF_NO_SIMD=1; tests flip arms with
// SetEnabledForTest. Both arms perform the same IEEE operations in the
// same order — the SIMD arm uses _mm256_fmadd_ps where the scalar arm
// uses std::fmaf (one FMA either way). That is the contract the f32
// path's bitwise determinism (across thread counts AND dispatch arms)
// rests on.
//
// The implementation lives in its own TU (simd_f32.cc) compiled with
// -ffp-contract=off, pinned in src/CMakeLists.txt, so the compiler cannot
// contract neighboring mul/add expressions into FMAs we did not write.
// The explicit std::fmaf calls are unaffected: contraction settings only
// govern *implicit* contraction.

#ifndef EMAF_TENSOR_SIMD_F32_H_
#define EMAF_TENSOR_SIMD_F32_H_

#include <cstdint>

namespace emaf::tensor::simd {

// True when the AVX2/FMA arm is active (CPUID check minus the
// EMAF_NO_SIMD=1 env knob, or the last SetEnabledForTest override).
bool Enabled();

// Test hook: force the scalar fallback (false) or re-run the CPUID+env
// probe (true). Returns the resulting Enabled() value — passing true on a
// machine without AVX2 still yields false.
bool SetEnabledForTest(bool enabled);

// C += A B on raw row-major f32 buffers; C must be zero-initialized (or
// hold a partial sum). Rows of C are fully independent — no zero-skip, no
// cross-row state — so callers may partition rows arbitrarily across
// threads and still get bytes identical to one serial call.
void MatMulF32(const float* a, const float* b, float* c, int64_t m,
               int64_t k, int64_t n);

}  // namespace emaf::tensor::simd

#endif  // EMAF_TENSOR_SIMD_F32_H_
