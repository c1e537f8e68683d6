// Matmul kernel arms. The emaf target builds with -ffp-contract=off
// (src/CMakeLists.txt), so every FMA below is one we wrote explicitly; see
// simd.h for the bitwise SIMD-vs-scalar contract the two arms uphold.

#include "tensor/simd.h"

#include <immintrin.h>

#include <atomic>
#include <cmath>

#include "common/env.h"

// The AVX2 arm is compiled for AVX2+FMA whatever -march says and only
// ever runs after Enabled() has confirmed the CPU supports both.
#define EMAF_TARGET_AVX2 __attribute__((target("avx2,fma")))

namespace emaf::tensor::simd {

namespace {

bool ProbeEnabled() {
  if (GetEnvBool("EMAF_NO_SIMD", false)) return false;
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

// -1 = not yet probed; tests overwrite via SetEnabledForTest.
std::atomic<int> g_enabled{-1};

// Both arms produce, for every element C[i][j], the chain
//   for kk in 0..k: C[i][j] = fma(A[i][kk], B[kk][j], C[i][j])
// in increasing kk order, minus the skipped steps: in a 4-row group kk is
// skipped when all four A values are zero, in a remainder row when that
// row's A value is. Skipping is observable (0 * Inf is NaN, and
// fma(0, b, -0.0) is +0.0), so both arms share the predicate exactly.

void MatMulF64Scalar(const double* __restrict__ a,
                     const double* __restrict__ b, double* __restrict__ c,
                     int64_t m, int64_t k, int64_t n, int64_t ld) {
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* a0 = a + i * k;
    const double* a1 = a0 + k;
    const double* a2 = a1 + k;
    const double* a3 = a2 + k;
    double* c0 = c + i * ld;
    double* c1 = c0 + ld;
    double* c2 = c1 + ld;
    double* c3 = c2 + ld;
    for (int64_t kk = 0; kk < k; ++kk) {
      const double v0 = a0[kk];
      const double v1 = a1[kk];
      const double v2 = a2[kk];
      const double v3 = a3[kk];
      if (v0 == 0.0 && v1 == 0.0 && v2 == 0.0 && v3 == 0.0) continue;
      const double* brow = b + kk * ld;
      for (int64_t j = 0; j < n; ++j) {
        const double bj = brow[j];
        c0[j] = std::fma(v0, bj, c0[j]);
        c1[j] = std::fma(v1, bj, c1[j]);
        c2[j] = std::fma(v2, bj, c2[j]);
        c3[j] = std::fma(v3, bj, c3[j]);
      }
    }
  }
  for (; i < m; ++i) {
    const double* arow = a + i * k;
    double* crow = c + i * ld;
    for (int64_t kk = 0; kk < k; ++kk) {
      const double v = arow[kk];
      if (v == 0.0) continue;
      const double* brow = b + kk * ld;
      for (int64_t j = 0; j < n; ++j) crow[j] = std::fma(v, brow[j], crow[j]);
    }
  }
}

// Lanes [0, lanes) of a 4 x f64 vector, for maskload/maskstore.
EMAF_TARGET_AVX2 inline __m256i LaneMask(int64_t lanes) {
  return _mm256_cmpgt_epi64(_mm256_set1_epi64x(lanes),
                            _mm256_setr_epi64x(0, 1, 2, 3));
}

EMAF_TARGET_AVX2 inline __m256d LoadF64(const double* p, bool masked,
                                        __m256i tail) {
  return masked ? _mm256_maskload_pd(p, tail) : _mm256_loadu_pd(p);
}

// One R-row x 4V-column tile of C (row stride ld), held in V ymm
// accumulators per row for the whole k sweep. With kMasked the last
// vector covers only the lanes set in `tail`; the others are neither read
// nor written.
template <int R, int V, bool kMasked>
EMAF_TARGET_AVX2 void TileF64(const double* a, int64_t k, const double* b,
                              double* c, int64_t ld, __m256i tail) {
  __m256d acc[R][V];
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 3
    for (int v = 0; v < V; ++v) {
      acc[r][v] = LoadF64(c + r * ld + 4 * v, kMasked && v == V - 1, tail);
    }
  }
  for (int64_t kk = 0; kk < k; ++kk) {
    bool skip = true;
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) skip = skip && a[r * k + kk] == 0.0;
    if (skip) continue;
    const double* brow = b + kk * ld;
    __m256d bv[V];
#pragma GCC unroll 3
    for (int v = 0; v < V; ++v) {
      bv[v] = LoadF64(brow + 4 * v, kMasked && v == V - 1, tail);
    }
#pragma GCC unroll 4
    for (int r = 0; r < R; ++r) {
      const __m256d w = _mm256_set1_pd(a[r * k + kk]);
#pragma GCC unroll 3
      for (int v = 0; v < V; ++v) {
        acc[r][v] = _mm256_fmadd_pd(w, bv[v], acc[r][v]);
      }
    }
  }
#pragma GCC unroll 4
  for (int r = 0; r < R; ++r) {
#pragma GCC unroll 3
    for (int v = 0; v < V; ++v) {
      double* p = c + r * ld + 4 * v;
      if (kMasked && v == V - 1) {
        _mm256_maskstore_pd(p, tail, acc[r][v]);
      } else {
        _mm256_storeu_pd(p, acc[r][v]);
      }
    }
  }
}

// R rows of C, swept in kMatMulTileCols-wide tiles plus one narrower
// (possibly masked) tail tile.
template <int R>
EMAF_TARGET_AVX2 void RowsF64(const double* a, int64_t k, const double* b,
                              double* c, int64_t n, int64_t ld) {
  int64_t j = 0;
  for (; j + kMatMulTileCols <= n; j += kMatMulTileCols) {
    TileF64<R, 3, false>(a, k, b + j, c + j, ld, __m256i{});
  }
  const int64_t rest = n - j;
  if (rest == 0) return;
  const __m256i tail = LaneMask(rest % 4);
  b += j;
  c += j;
  switch (rest) {
    case 4: TileF64<R, 1, false>(a, k, b, c, ld, tail); break;
    case 8: TileF64<R, 2, false>(a, k, b, c, ld, tail); break;
    case 1: case 2: case 3:
      TileF64<R, 1, true>(a, k, b, c, ld, tail);
      break;
    case 5: case 6: case 7:
      TileF64<R, 2, true>(a, k, b, c, ld, tail);
      break;
    default:
      TileF64<R, 3, true>(a, k, b, c, ld, tail);
      break;
  }
}

EMAF_TARGET_AVX2
void MatMulF64Avx2(const double* a, const double* b, double* c, int64_t m,
                   int64_t k, int64_t n, int64_t ld) {
  int64_t i = 0;
  for (; i + 4 <= m; i += 4) RowsF64<4>(a + i * k, k, b, c + i * ld, n, ld);
  for (; i < m; ++i) RowsF64<1>(a + i * k, k, b, c + i * ld, n, ld);
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

void MatMulF64(const double* a, const double* b, double* c, int64_t m,
               int64_t k, int64_t n, int64_t ld) {
  if (Enabled()) {
    MatMulF64Avx2(a, b, c, m, k, n, ld);
  } else {
    MatMulF64Scalar(a, b, c, m, k, n, ld);
  }
}

}  // namespace emaf::tensor::simd
