#include <algorithm>

#include "common/metrics.h"
#include "common/thread_pool.h"
#include "tensor/op_common.h"
#include "tensor/ops.h"
#include "tensor/plan_hook.h"
#include "tensor/simd.h"

namespace emaf::tensor {

namespace internal {

void ParallelMatMul(const Scalar* a, const Scalar* b, Scalar* c, int64_t m,
                    int64_t k, int64_t n) {
  common::ThreadPool& pool = common::ThreadPool::Global();
  const int64_t threads = pool.num_threads();
  if (threads <= 1 || m * k * n < kMatMulParallelMinFlops) {
    EMAF_METRIC_COUNTER_ADD("matmul.dispatch_serial", 1);
    simd::MatMulF64(a, b, c, m, k, n, n);
    return;
  }
  EMAF_METRIC_COUNTER_ADD("matmul.dispatch_parallel", 1);
  const int64_t row_blocks = (m + 3) / 4;
  const int64_t col_tiles =
      (n + simd::kMatMulTileCols - 1) / simd::kMatMulTileCols;
  if (row_blocks < 2 * threads && col_tiles > row_blocks) {
    // Few, tall-k row blocks (conv weight gradients): split columns, so
    // each chunk streams only its slab of B. Neither the fma chain nor the
    // zero-skip predicate depends on columns, so any column partition is
    // bitwise identical to the serial sweep.
    const int64_t grain = std::max<int64_t>(1, col_tiles / (threads * 4));
    pool.ParallelFor(0, col_tiles, grain, [&](int64_t t0, int64_t t1) {
      const int64_t j0 = t0 * simd::kMatMulTileCols;
      const int64_t j1 = std::min(t1 * simd::kMatMulTileCols, n);
      simd::MatMulF64(a, b + j0, c + j0, m, k, j1 - j0, n);
    });
    return;
  }
  // Chunk in units of the kernel's 4-row block: a chunk starting at a
  // multiple of 4 replays exactly the serial schedule for its rows (the
  // sub-4 remainder, if any, lands in the final chunk just as it does at
  // the end of a serial sweep), so the output is bitwise identical.
  const int64_t grain = std::max<int64_t>(1, row_blocks / (threads * 4));
  pool.ParallelFor(0, row_blocks, grain, [&](int64_t b0, int64_t b1) {
    const int64_t r0 = b0 * 4;
    const int64_t r1 = std::min(b1 * 4, m);
    simd::MatMulF64(a + r0 * k, b, c + r0 * n, r1 - r0, k, n, n);
  });
}

}  // namespace internal

namespace {

// Shape of the leading (batch) axes, i.e. everything but the last two.
Shape BatchShape(const Shape& s) {
  std::vector<int64_t> dims(s.dims().begin(), s.dims().end() - 2);
  return Shape(dims);
}

// The compute body of MatMul: out must be zero-initialized with the
// broadcast-batched output shape.
void MatMulCompute(const Tensor& a, const Tensor& b, Tensor* out, int64_t m,
                   int64_t k, int64_t n, const Shape& a_batch,
                   const Shape& b_batch, const Shape& batch) {
  const Scalar* ad = a.data();
  const Scalar* bd = b.data();
  Scalar* od = out->data();

  if (b.rank() == 2) {
    // Shared right matrix: collapse all leading axes of `a` into rows and
    // run one large matmul — the hot path for linear layers and graph
    // propagation.
    int64_t rows = a.NumElements() / k;
    internal::ParallelMatMul(ad, bd, od, rows, k, n);
    return;
  }
  // General broadcast-batched case, batch offsets via odometer. The
  // odometer walk is cheap and stays serial; the per-batch kernels run
  // in parallel over pre-computed offsets when the total work is large
  // enough (each batch writes a disjoint output slab, and each batch's
  // kernel is the same call as in the serial loop, so the result is
  // bitwise identical).
  std::vector<int64_t> a_strides = BroadcastStrides(a_batch, batch);
  std::vector<int64_t> b_strides = BroadcastStrides(b_batch, batch);
  const std::vector<int64_t>& batch_dims = batch.dims();
  int64_t batch_rank = batch.rank();
  int64_t num_batches = batch.NumElements();
  std::vector<int64_t> index(static_cast<size_t>(batch_rank), 0);
  std::vector<int64_t> a_offsets(static_cast<size_t>(num_batches));
  std::vector<int64_t> b_offsets(static_cast<size_t>(num_batches));
  int64_t a_off = 0;
  int64_t b_off = 0;
  for (int64_t batch_idx = 0; batch_idx < num_batches; ++batch_idx) {
    a_offsets[static_cast<size_t>(batch_idx)] = a_off * m * k;
    b_offsets[static_cast<size_t>(batch_idx)] = b_off * k * n;
    for (int64_t axis = batch_rank - 1; axis >= 0; --axis) {
      a_off += a_strides[axis];
      b_off += b_strides[axis];
      if (++index[axis] < batch_dims[axis]) break;
      a_off -= a_strides[axis] * batch_dims[axis];
      b_off -= b_strides[axis] * batch_dims[axis];
      index[axis] = 0;
    }
  }
  common::ThreadPool& pool = common::ThreadPool::Global();
  bool parallel = pool.num_threads() > 1 && num_batches > 1 &&
                  num_batches * m * k * n >= internal::kMatMulParallelMinFlops;
  auto run_batches = [&](int64_t lo, int64_t hi) {
    for (int64_t batch_idx = lo; batch_idx < hi; ++batch_idx) {
      simd::MatMulF64(ad + a_offsets[static_cast<size_t>(batch_idx)],
                             bd + b_offsets[static_cast<size_t>(batch_idx)],
                             od + batch_idx * m * n, m, k, n, n);
    }
  };
  if (parallel) {
    EMAF_METRIC_COUNTER_ADD("matmul.batched_dispatch_parallel", 1);
    pool.ParallelFor(0, num_batches, 1, run_batches);
  } else {
    EMAF_METRIC_COUNTER_ADD("matmul.batched_dispatch_serial", 1);
    run_batches(0, num_batches);
  }
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  EMAF_CHECK_GE(a.rank(), 2) << "MatMul input must have rank >= 2";
  EMAF_CHECK_GE(b.rank(), 2) << "MatMul input must have rank >= 2";
  int64_t m = a.dim(-2);
  int64_t k = a.dim(-1);
  int64_t k2 = b.dim(-2);
  int64_t n = b.dim(-1);
  EMAF_CHECK_EQ(k, k2) << "MatMul inner dimension mismatch: "
                       << a.shape().ToString() << " x " << b.shape().ToString();

  Shape a_batch = BatchShape(a.shape());
  Shape b_batch = BatchShape(b.shape());
  Shape batch = BroadcastShapes(a_batch, b_batch);
  std::vector<int64_t> out_dims = batch.dims();
  out_dims.push_back(m);
  out_dims.push_back(n);
  Tensor out = Tensor::Zeros(Shape(out_dims));
  MatMulCompute(a, b, &out, m, k, n, a_batch, b_batch, batch);

  if (plan_hook::Active()) {
    plan_hook::Record(plan_hook::OpKind::kMatMul, {a, b}, out);
  }
  if (ShouldRecord({a, b})) {
    Tensor ad_saved = a.Detach();
    Tensor bd_saved = b.Detach();
    SetGradFn(&out, "MatMul", {a, b}, [ad_saved, bd_saved](const Tensor& g) {
      NoGradGuard guard;
      // dA = g B^T, reduced over broadcast batch dims; likewise dB.
      Tensor ga = internal::GradSumTo(MatMul(g, TransposeLast2(bd_saved)),
                                      ad_saved.shape());
      Tensor gb;
      if (bd_saved.rank() == 2) {
        // dB = sum_batch A^T g = (collapsed A)^T (collapsed g): one kernel
        // call instead of a batched matmul plus reduction.
        int64_t k = bd_saved.dim(0);
        int64_t n = bd_saved.dim(1);
        int64_t rows = ad_saved.NumElements() / k;
        Tensor at = TransposeLast2(Reshape(ad_saved, Shape{rows, k}));
        gb = Tensor::Zeros(bd_saved.shape());
        internal::ParallelMatMul(at.data(), g.data(), gb.data(), k, rows, n);
      } else {
        gb = internal::GradSumTo(MatMul(TransposeLast2(ad_saved), g),
                                 bd_saved.shape());
      }
      return std::vector<Tensor>{ga, gb};
    });
  }
  return out;
}

}  // namespace emaf::tensor
