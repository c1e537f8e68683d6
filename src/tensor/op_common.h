// Internal helpers shared by op implementations. Not part of the public API.

#ifndef EMAF_TENSOR_OP_COMMON_H_
#define EMAF_TENSOR_OP_COMMON_H_

#include <vector>

#include "common/check.h"
#include "tensor/autograd.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace emaf::tensor::internal {

// C += A B on raw row-major buffers ([m, k] x [k, n]); C must be
// zero-initialized (or hold a partial sum to accumulate into). Runs the
// dispatched simd::MatMulF64 kernel (tensor/simd.h) on the
// global ThreadPool: rows split at multiples of the kernel's 4-row block,
// or, when there are fewer than 2 blocks per thread and more column tiles
// than blocks, columns split at kernel tiles. Neither partition changes
// any element's fma chain or zero-skip, so the result is bitwise
// identical to one serial kernel call at any thread count. Stays serial
// below a flop threshold (kMatMulParallelMinFlops) where fork/join
// overhead would dominate. Defined in ops_matmul.cc.
void ParallelMatMul(const Scalar* a, const Scalar* b, Scalar* c, int64_t m,
                    int64_t k, int64_t n);

// m * k * n below which ParallelMatMul runs serially.
inline constexpr int64_t kMatMulParallelMinFlops = 1 << 17;

// Applies `f(x_i)` elementwise into a fresh tensor (no autograd
// recording; callers attach their own GradFn).
template <typename F>
Tensor MapUnary(const Tensor& x, F f) {
  Tensor out = MakeUninitialized(x.shape());
  const Scalar* xd = x.data();
  Scalar* od = out.data();
  int64_t n = x.NumElements();
  for (int64_t i = 0; i < n; ++i) od[i] = f(xd[i]);
  return out;
}

// Applies `f(a_i, b_i)` with broadcasting into a fresh tensor (no autograd).
template <typename F>
Tensor MapBinary(const Tensor& a, const Tensor& b, F f) {
  if (a.shape() == b.shape()) {
    Tensor out = MakeUninitialized(a.shape());
    const Scalar* ad = a.data();
    const Scalar* bd = b.data();
    Scalar* od = out.data();
    int64_t n = a.NumElements();
    for (int64_t i = 0; i < n; ++i) od[i] = f(ad[i], bd[i]);
    return out;
  }
  Shape out_shape = BroadcastShapes(a.shape(), b.shape());
  Tensor out = MakeUninitialized(out_shape);
  std::vector<int64_t> a_strides = BroadcastStrides(a.shape(), out_shape);
  std::vector<int64_t> b_strides = BroadcastStrides(b.shape(), out_shape);
  const std::vector<int64_t>& dims = out_shape.dims();
  int64_t rank = out_shape.rank();
  std::vector<int64_t> index(rank, 0);
  const Scalar* ad = a.data();
  const Scalar* bd = b.data();
  Scalar* od = out.data();
  int64_t n = out_shape.NumElements();
  int64_t a_off = 0;
  int64_t b_off = 0;
  for (int64_t i = 0; i < n; ++i) {
    od[i] = f(ad[a_off], bd[b_off]);
    // Odometer increment over the multi-index, updating offsets in place.
    for (int64_t axis = rank - 1; axis >= 0; --axis) {
      a_off += a_strides[axis];
      b_off += b_strides[axis];
      if (++index[axis] < dims[axis]) break;
      // Carry: rewind this axis.
      a_off -= a_strides[axis] * dims[axis];
      b_off -= b_strides[axis] * dims[axis];
      index[axis] = 0;
    }
  }
  return out;
}

}  // namespace emaf::tensor::internal

#endif  // EMAF_TENSOR_OP_COMMON_H_
