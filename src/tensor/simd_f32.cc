// f32 kernel arms. Compiled with -ffp-contract=off (src/CMakeLists.txt) so
// every FMA below is one we wrote explicitly; see simd_f32.h for the
// bitwise SIMD-vs-scalar contract each pair of arms upholds.

#include "tensor/simd_f32.h"

#include <immintrin.h>

#include <atomic>
#include <cmath>

#include "common/check.h"
#include "common/env.h"

namespace emaf::tensor::simd {

namespace {

bool ProbeEnabled() {
  if (GetEnvBool("EMAF_NO_SIMD", false)) return false;
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

// -1 = not yet probed; tests overwrite via SetEnabledForTest.
std::atomic<int> g_enabled{-1};

// --- matmul arms ---------------------------------------------------------
//
// Both arms produce, for every element C[i][j], the chain
//   for kk in 0..k: C[i][j] = fmaf(A[i][kk], B[kk][j], C[i][j])
// in increasing kk order — the SIMD arm's 4-row / 8-lane blocking only
// reorders *which element* is updated next, never the per-element chain.

void MatMulF32Scalar(const float* __restrict__ a, const float* __restrict__ b,
                     float* __restrict__ c, int64_t m, int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float v = ai[kk];
      const float* brow = b + kk * n;
      for (int64_t j = 0; j < n; ++j) {
        ci[j] = std::fmaf(v, brow[j], ci[j]);
      }
    }
  }
}

void MatMulF32Avx2(const float* __restrict__ a, const float* __restrict__ b,
                   float* __restrict__ c, int64_t m, int64_t k, int64_t n) {
  int64_t i = 0;
  // 4 rows of C per pass share each loaded row of B.
  for (; i + 4 <= m; i += 4) {
    const float* a0 = a + (i + 0) * k;
    const float* a1 = a + (i + 1) * k;
    const float* a2 = a + (i + 2) * k;
    const float* a3 = a + (i + 3) * k;
    float* c0 = c + (i + 0) * n;
    float* c1 = c + (i + 1) * n;
    float* c2 = c + (i + 2) * n;
    float* c3 = c + (i + 3) * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float v0 = a0[kk];
      const float v1 = a1[kk];
      const float v2 = a2[kk];
      const float v3 = a3[kk];
      const __m256 w0 = _mm256_set1_ps(v0);
      const __m256 w1 = _mm256_set1_ps(v1);
      const __m256 w2 = _mm256_set1_ps(v2);
      const __m256 w3 = _mm256_set1_ps(v3);
      const float* brow = b + kk * n;
      int64_t j = 0;
      for (; j + 8 <= n; j += 8) {
        const __m256 bv = _mm256_loadu_ps(brow + j);
        _mm256_storeu_ps(c0 + j,
                         _mm256_fmadd_ps(w0, bv, _mm256_loadu_ps(c0 + j)));
        _mm256_storeu_ps(c1 + j,
                         _mm256_fmadd_ps(w1, bv, _mm256_loadu_ps(c1 + j)));
        _mm256_storeu_ps(c2 + j,
                         _mm256_fmadd_ps(w2, bv, _mm256_loadu_ps(c2 + j)));
        _mm256_storeu_ps(c3 + j,
                         _mm256_fmadd_ps(w3, bv, _mm256_loadu_ps(c3 + j)));
      }
      for (; j < n; ++j) {
        c0[j] = std::fmaf(v0, brow[j], c0[j]);
        c1[j] = std::fmaf(v1, brow[j], c1[j]);
        c2[j] = std::fmaf(v2, brow[j], c2[j]);
        c3[j] = std::fmaf(v3, brow[j], c3[j]);
      }
    }
  }
  for (; i < m; ++i) {
    const float* ai = a + i * k;
    float* ci = c + i * n;
    for (int64_t kk = 0; kk < k; ++kk) {
      const float v = ai[kk];
      const float* brow = b + kk * n;
      int64_t j = 0;
      const __m256 w = _mm256_set1_ps(v);
      for (; j + 8 <= n; j += 8) {
        _mm256_storeu_ps(ci + j, _mm256_fmadd_ps(w, _mm256_loadu_ps(brow + j),
                                                 _mm256_loadu_ps(ci + j)));
      }
      for (; j < n; ++j) {
        ci[j] = std::fmaf(v, brow[j], ci[j]);
      }
    }
  }
}

}  // namespace

bool Enabled() {
  int v = g_enabled.load(std::memory_order_relaxed);
  if (v < 0) {
    v = ProbeEnabled() ? 1 : 0;
    g_enabled.store(v, std::memory_order_relaxed);
  }
  return v == 1;
}

bool SetEnabledForTest(bool enabled) {
  g_enabled.store(enabled ? (ProbeEnabled() ? 1 : 0) : 0,
                  std::memory_order_relaxed);
  return Enabled();
}

void MatMulF32(const float* a, const float* b, float* c, int64_t m, int64_t k,
               int64_t n) {
  if (Enabled()) {
    MatMulF32Avx2(a, b, c, m, k, n);
  } else {
    MatMulF32Scalar(a, b, c, m, k, n);
  }
}

}  // namespace emaf::tensor::simd
