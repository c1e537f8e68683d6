// The runtime-dispatched f64 matmul kernel: an AVX2/FMA arm and a scalar
// fallback that produce bitwise-identical results (DESIGN.md, "Kernels &
// SIMD dispatch").
//
// Dispatch: Enabled() is true when the CPU reports AVX2+FMA and the
// process was not started with EMAF_NO_SIMD=1; tests flip arms with
// SetEnabledForTest. Both arms perform the same IEEE operations in the
// same order — the SIMD arm uses _mm256_fmadd_pd where the scalar arm
// uses std::fma (one FMA either way). That is the contract bitwise
// determinism across thread counts AND dispatch arms rests on.
//
// The emaf target builds with -ffp-contract=off (src/CMakeLists.txt), so
// the compiler cannot contract neighboring mul/add expressions into FMAs
// we did not write. The explicit std::fma calls are unaffected:
// contraction settings only govern *implicit* contraction. The AVX2 arm
// carries its own target("avx2,fma") attribute, so simd.cc also builds
// without -march.

#ifndef EMAF_TENSOR_SIMD_H_
#define EMAF_TENSOR_SIMD_H_

#include <cstdint>

namespace emaf::tensor::simd {

// True when the AVX2/FMA arm is active (CPUID check minus the
// EMAF_NO_SIMD=1 env knob, or the last SetEnabledForTest override).
bool Enabled();

// Test hook: force the scalar fallback (false) or re-run the CPUID+env
// probe (true). Returns the resulting Enabled() value — passing true on a
// machine without AVX2 still yields false.
bool SetEnabledForTest(bool enabled);

// C += A B on row-major buffers: A is [m, k] with row stride k; B is
// [k, n] and C is [m, n], both with row stride `ld` (>= n), so a caller
// can hand the kernel a column slab of wider B and C. C must be
// zero-initialized (or hold a partial sum). Each C[i][j] is one fma chain
// over kk in ascending order; the chain never depends on j, so any column
// partition is bitwise-safe. Within each 4-row group starting at a
// multiple of 4, step kk is skipped when all four A[i][kk] are zero; the
// m % 4 remainder rows skip per row. A row partition is bitwise-safe at
// multiples of 4.
void MatMulF64(const double* a, const double* b, double* c, int64_t m,
               int64_t k, int64_t n, int64_t ld);

// The AVX2 arms' C tile width, the unit ParallelMatMul splits columns in.
inline constexpr int64_t kMatMulTileCols = 12;

}  // namespace emaf::tensor::simd

#endif  // EMAF_TENSOR_SIMD_H_
