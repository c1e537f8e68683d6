// Internal helpers shared by op implementations. Not part of the public API.

#ifndef EMAF_TENSOR_OP_COMMON_H_
#define EMAF_TENSOR_OP_COMMON_H_

#include <array>
#include <cstddef>
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

// A row-major walk over `dims` that reads N operands through their own
// element strides, taken one inner run (the last axis) at a time.
//
// The constructor drops size-1 axes and merges each pair of adjacent
// axes across which every operand stays linear (outer stride == inner
// stride * inner extent). Merging never reorders the walk: it visits the
// same (element, operand offset) pairs in the same order as a
// per-element odometer over the original axes, only with longer runs.
// For an operand read through BroadcastStrides from a contiguous tensor
// the run stride is therefore 0 or 1. An empty (rank-0 or all-size-1)
// walk is one run of length 1 with stride 0 for every operand.
template <size_t N>
class StridedWalk {
 public:
  StridedWalk(const std::vector<int64_t>& dims,
              std::array<std::vector<int64_t>, N> strides)
      : strides_(std::move(strides)) {
    for (size_t axis = 0; axis < dims.size(); ++axis) {
      const int64_t d = dims[axis];
      if (d == 1) continue;
      bool merge = !dims_.empty();
      for (size_t k = 0; k < N && merge; ++k) {
        merge = strides_[k][dims_.size() - 1] == strides_[k][axis] * d;
      }
      if (merge) {
        dims_.back() *= d;
        for (size_t k = 0; k < N; ++k) {
          strides_[k][dims_.size() - 1] = strides_[k][axis];
        }
      } else {
        for (size_t k = 0; k < N; ++k) {
          strides_[k][dims_.size()] = strides_[k][axis];
        }
        dims_.push_back(d);
      }
    }
    for (size_t k = 0; k < N; ++k) strides_[k].resize(dims_.size());
    index_.assign(dims_.size(), 0);
  }

  // The merged axes and each operand's strides over them.
  const std::vector<int64_t>& dims() const { return dims_; }
  const std::vector<int64_t>& strides(size_t k) const { return strides_[k]; }
  // Length of one inner run and operand k's stride along it.
  int64_t run() const { return dims_.empty() ? 1 : dims_.back(); }
  int64_t step(size_t k) const {
    return dims_.empty() ? 0 : strides_[k].back();
  }
  // Operand k's offset of the current run's first element.
  int64_t offset(size_t k) const { return offsets_[k]; }

  // Advances to the next run (odometer over every axis but the last).
  void NextRun() {
    const int64_t rank = static_cast<int64_t>(dims_.size());
    for (int64_t axis = rank - 2; axis >= 0; --axis) {
      for (size_t k = 0; k < N; ++k) offsets_[k] += strides_[k][axis];
      if (++index_[axis] < dims_[axis]) return;
      for (size_t k = 0; k < N; ++k) {
        offsets_[k] -= strides_[k][axis] * dims_[axis];
      }
      index_[axis] = 0;
    }
  }

 private:
  std::vector<int64_t> dims_;
  std::array<std::vector<int64_t>, N> strides_;
  std::vector<int64_t> index_;
  std::array<int64_t, N> offsets_{};
};

// `x` as a gradient of shape `target`: `x` itself (no copy) when it
// already has that shape, else SumTo(x, target). Backward passes may
// return the same tensor for several inputs because none of them writes
// into a gradient it received or returned (autograd.h).
inline Tensor GradSumTo(const Tensor& x, const Shape& target) {
  return x.shape() == target ? x : SumTo(x, target);
}

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
// The broadcast path walks the output in runs (StridedWalk), with each
// operand either streaming (stride 1) or held fixed (stride 0) along a run.
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
  const int64_t n = out_shape.NumElements();
  if (n == 0) return out;
  StridedWalk<2> walk(out_shape.dims(),
                      {BroadcastStrides(a.shape(), out_shape),
                       BroadcastStrides(b.shape(), out_shape)});
  const int64_t run = walk.run();
  // Along the run at least one operand has the output's extent, so
  // streams; a single-element walk (run 1) may take any branch.
  const bool a_streams = walk.step(0) != 0;
  const bool b_streams = walk.step(1) != 0;
  const Scalar* ad = a.data();
  const Scalar* bd = b.data();
  Scalar* od = out.data();
  for (int64_t start = 0; start < n; start += run, walk.NextRun()) {
    const Scalar* ap = ad + walk.offset(0);
    const Scalar* bp = bd + walk.offset(1);
    Scalar* op = od + start;
    if (a_streams && b_streams) {
      for (int64_t j = 0; j < run; ++j) op[j] = f(ap[j], bp[j]);
    } else if (a_streams) {
      const Scalar bv = *bp;
      for (int64_t j = 0; j < run; ++j) op[j] = f(ap[j], bv);
    } else {
      const Scalar av = *ap;
      for (int64_t j = 0; j < run; ++j) op[j] = f(av, bp[j]);
    }
  }
  return out;
}

}  // namespace emaf::tensor::internal

#endif  // EMAF_TENSOR_OP_COMMON_H_
