// The matmul kernel's dispatch contract (DESIGN.md, "Kernels & SIMD
// dispatch"): the AVX2 arm and the scalar arm of simd::MatMulF64 write
// the same bytes, and both match a reference that spells the contract
// out. The arms are switched in process with SetEnabledForTest, so one
// run covers both on an AVX2 host.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "tensor/simd.h"

namespace emaf {
namespace {

// Restores the dispatch arm no matter how a test exits, so a failing
// assertion cannot leak a forced-scalar process state into later cases.
class DispatchGuard {
 public:
  DispatchGuard() : was_enabled_(tensor::simd::Enabled()) {}
  ~DispatchGuard() { tensor::simd::SetEnabledForTest(was_enabled_); }

 private:
  bool was_enabled_;
};

// The f64 kernel's byte contract spelled out: one fma chain per element in
// ascending k, skipping kk when every A value of the element's aligned
// 4-row group is zero (for a remainder row, when its own value is).
std::vector<double> ReferenceMatMulF64(const std::vector<double>& a,
                                       const std::vector<double>& b,
                                       std::vector<double> c, int64_t m,
                                       int64_t k, int64_t n) {
  for (int64_t i = 0; i < m; ++i) {
    const int64_t lo = i < m / 4 * 4 ? i / 4 * 4 : i;
    const int64_t hi = i < m / 4 * 4 ? lo + 4 : i + 1;
    for (int64_t kk = 0; kk < k; ++kk) {
      bool skip = true;
      for (int64_t r = lo; r < hi; ++r) skip = skip && a[r * k + kk] == 0.0;
      if (skip) continue;
      for (int64_t j = 0; j < n; ++j) {
        c[i * n + j] = std::fma(a[i * k + kk], b[kk * n + j], c[i * n + j]);
      }
    }
  }
  return c;
}

TEST(SimdDispatchTest, MatMulF64BitwiseAcrossArms) {
  DispatchGuard guard;
  Rng rng(17);
  // x86's default NaN, the one 0 * Inf produces: with a single NaN bit
  // pattern in play the result bytes do not depend on which NaN operand
  // an FMA instruction propagates.
  const double nan = std::bit_cast<double>(uint64_t{0xFFF8000000000000});
  const double inf = std::numeric_limits<double>::infinity();
  for (int64_t m : {1, 3, 4, 5, 8, 9}) {
    for (int64_t k : {1, 7, 26}) {
      for (int64_t n : {1, 3, 4, 5, 12, 13, 26, 33, 96}) {
        // A: per 4-row group (or remainder row) and kk, all rows zero,
        // some rows zero (either sign), or none.
        std::vector<double> a(static_cast<size_t>(m * k));
        for (int64_t g = 0; g < m; g += 4) {
          const int64_t rows = g + 4 <= m ? 4 : 1;
          for (int64_t i = g; i < m && i < g + 4; i += rows) {
            for (int64_t kk = 0; kk < k; ++kk) {
              const int64_t pattern = rng.UniformInt(0, 2);
              for (int64_t r = i; r < i + rows; ++r) {
                const bool zero =
                    pattern == 0 || (pattern == 1 && rng.Bernoulli(0.5));
                a[static_cast<size_t>(r * k + kk)] =
                    zero ? (rng.Bernoulli(0.5) ? 0.0 : -0.0)
                         : rng.Uniform(-2.0, 2.0);
              }
            }
          }
        }
        // B and the partial sum C: mostly finite, with Inf, NaN and -0.0.
        auto special = [&](int64_t count) {
          std::vector<double> v(static_cast<size_t>(count));
          for (double& x : v) {
            const int64_t pick = rng.UniformInt(0, 15);
            x = pick == 0 ? inf : pick == 1 ? -inf : pick == 2 ? nan
                : pick == 3 ? -0.0 : rng.Uniform(-3.0, 3.0);
          }
          return v;
        };
        const std::vector<double> b = special(k * n);
        const std::vector<double> c0 = special(m * n);
        std::vector<double> c_simd = c0;
        std::vector<double> c_scalar = c0;
        tensor::simd::SetEnabledForTest(true);
        tensor::simd::MatMulF64(a.data(), b.data(), c_simd.data(), m, k, n, n);
        tensor::simd::SetEnabledForTest(false);
        tensor::simd::MatMulF64(a.data(), b.data(), c_scalar.data(), m, k, n,
                                n);
        const std::vector<double> reference =
            ReferenceMatMulF64(a, b, c0, m, k, n);
        const size_t bytes = c0.size() * sizeof(double);
        EXPECT_EQ(std::memcmp(c_simd.data(), c_scalar.data(), bytes), 0)
            << "arms differ at m=" << m << " k=" << k << " n=" << n;
        EXPECT_EQ(std::memcmp(c_scalar.data(), reference.data(), bytes), 0)
            << "scalar arm vs reference at m=" << m << " k=" << k
            << " n=" << n;
      }
    }
  }
}

}  // namespace
}  // namespace emaf
